// Cross-cutting property tests over the whole stack: mathematical
// invariants of the three comparisons that must hold for every engine on
// randomized inputs (parameterized over seeds).
#include <gtest/gtest.h>

#include <future>
#include <random>
#include <vector>

#include "bits/compare.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"
#include "kern/gpu_kernel.hpp"
#include "sparse/engine.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using bits::CountMatrix;

class SeededProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperties, XorDistanceIsAMetric) {
  // gamma_xor is the Hamming distance: identity, symmetry, triangle
  // inequality over every row triple.
  const auto m = io::random_bitmatrix(9, 700, 0.5, GetParam());
  const auto d = cpu::compare_blocked(m, m, Comparison::kXor);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(d.at(i, i), 0u);
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(d.at(i, j), d.at(j, i));
      for (std::size_t k = 0; k < 9; ++k) {
        EXPECT_LE(d.at(i, k), d.at(i, j) + d.at(j, k))
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST_P(SeededProperties, CountsBoundedByMarginals) {
  const auto a = io::random_bitmatrix(6, 450, 0.4, GetParam() + 1);
  const auto b = io::random_bitmatrix(7, 450, 0.6, GetParam() + 2);
  const auto land = cpu::compare_blocked(a, b, Comparison::kAnd);
  const auto lxor = cpu::compare_blocked(a, b, Comparison::kXor);
  const auto landn = cpu::compare_blocked(a, b, Comparison::kAndNot);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto pa = static_cast<std::uint32_t>(a.row_popcount(i));
    for (std::size_t j = 0; j < 7; ++j) {
      const auto pb = static_cast<std::uint32_t>(b.row_popcount(j));
      EXPECT_LE(land.at(i, j), std::min(pa, pb));
      EXPECT_LE(lxor.at(i, j), pa + pb);
      EXPECT_GE(lxor.at(i, j), pa > pb ? pa - pb : pb - pa);
      EXPECT_LE(landn.at(i, j), pa);
      EXPECT_LE(lxor.at(i, j), 450u);
    }
  }
}

TEST_P(SeededProperties, SingleBitFlipMovesCountsByAtMostOne) {
  const std::uint64_t seed = GetParam();
  auto a = io::random_bitmatrix(3, 300, 0.5, seed + 10);
  const auto b = io::random_bitmatrix(3, 300, 0.5, seed + 11);
  const auto before = cpu::compare_blocked(a, b, Comparison::kAnd);
  io::Rng rng(seed);
  const auto row = static_cast<std::size_t>(rng.next_below(3));
  const auto bit = static_cast<std::size_t>(rng.next_below(300));
  a.set(row, bit, !a.get(row, bit));
  const auto after = cpu::compare_blocked(a, b, Comparison::kAnd);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const std::int64_t delta =
          static_cast<std::int64_t>(after.at(i, j)) -
          static_cast<std::int64_t>(before.at(i, j));
      if (i == row) {
        EXPECT_LE(std::abs(delta), 1);
      } else {
        EXPECT_EQ(delta, 0);
      }
    }
  }
}

TEST_P(SeededProperties, UnionIntersectionPartition) {
  // For every pair: |a & b| + |a & ~b| == |a| (AND/ANDNOT partition a).
  const auto a = io::random_bitmatrix(5, 512, 0.3, GetParam() + 20);
  const auto b = io::random_bitmatrix(5, 512, 0.7, GetParam() + 21);
  const auto land = cpu::compare_blocked(a, b, Comparison::kAnd);
  const auto landn = cpu::compare_blocked(a, b, Comparison::kAndNot);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto pa = static_cast<std::uint32_t>(a.row_popcount(i));
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(land.at(i, j) + landn.at(i, j), pa);
    }
  }
}

TEST_P(SeededProperties, SparseDenseAndGpuAgreeOnRandomInputs) {
  const std::uint64_t seed = GetParam();
  const auto a = io::random_bitmatrix(11, 384, 0.15, seed + 30);
  const auto b = io::random_bitmatrix(13, 384, 0.45, seed + 31);
  const auto sa = sparse::SparseBitMatrix::from_dense(a);
  const auto sb = sparse::SparseBitMatrix::from_dense(b);
  const auto dev = model::all_gpus()[seed % 3];
  const kern::GpuSnpKernel kernel(
      dev, model::paper_preset(dev, model::WorkloadKind::kLd),
      Comparison::kXor);
  CountMatrix gpu_out(11, 13);
  kernel.execute(a, b, gpu_out);
  const auto expected = bits::compare_reference(a, b, Comparison::kXor);
  EXPECT_TRUE(gpu_out == expected);
  EXPECT_TRUE(sparse::sparse_compare(sa, sb, Comparison::kXor) ==
              expected);
  EXPECT_TRUE(cpu::compare_blocked(a, b, Comparison::kXor) == expected);
}

TEST_P(SeededProperties, NegationDuality) {
  // |a & ~(~b)| == |a & b| and |~a ^ ~b| == |a ^ b|.
  const auto a = io::random_bitmatrix(4, 333, 0.5, GetParam() + 40);
  const auto b = io::random_bitmatrix(4, 333, 0.5, GetParam() + 41);
  EXPECT_TRUE(cpu::compare_blocked(a, b.negated(), Comparison::kAndNot) ==
              cpu::compare_blocked(a, b, Comparison::kAnd));
  EXPECT_TRUE(cpu::compare_blocked(a.negated(), b.negated(),
                                   Comparison::kXor) ==
              cpu::compare_blocked(a, b, Comparison::kXor));
}


TEST(Determinism, ParallelEnginesAreRunToRunIdentical)
{
  // The engines spread disjoint outputs over the host pool's participants
  // with integer arithmetic, so repeated runs must agree bit-for-bit
  // whichever participant takes which tile or row.
  const auto a = io::random_bitmatrix(64, 2048, 0.4, 424242);
  const auto b = io::random_bitmatrix(96, 2048, 0.6, 424243);
  const auto first = cpu::compare_blocked(a, b, Comparison::kAnd);
  for (int run = 0; run < 3; ++run) {
    EXPECT_TRUE(cpu::compare_blocked(a, b, Comparison::kAnd) == first);
  }
  const auto dev = model::vega64();
  const kern::GpuSnpKernel kernel(
      dev, model::paper_preset(dev, model::WorkloadKind::kLd),
      Comparison::kAnd);
  CountMatrix gpu_first(64, 96);
  kernel.execute(a, b, gpu_first);
  for (int run = 0; run < 3; ++run) {
    CountMatrix again(64, 96);
    kernel.execute(a, b, again);
    EXPECT_TRUE(again == gpu_first);
  }
  const auto sa = sparse::SparseBitMatrix::from_dense(a);
  const auto sb = sparse::SparseBitMatrix::from_dense(b);
  const auto sp_first = sparse::sparse_compare(sa, sb, Comparison::kAnd);
  EXPECT_TRUE(sparse::sparse_compare(sa, sb, Comparison::kAnd) ==
              sp_first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// ServiceEngine batching invariance (PR 6): for any partition of a query
// set Q into Q1 (+) Q2, serving Q in one engine yields exactly the rows of
// serving Q1 and Q2 in separate engines — i.e. which requests happen to
// coalesce into a batch is unobservable in the results. 500 seeds, each
// with its own random split.
TEST(ServiceProperties, PartitionedQuerySetsYieldIdenticalRows) {
  const auto db = io::random_bitmatrix(21, 128, 0.5, 7001);
  const auto queries = io::random_bitmatrix(6, 128, 0.4, 7002);

  const auto serve = [&](const std::vector<std::size_t>& subset) {
    svc::ServiceConfig cfg;
    cfg.device = "cpu";
    cfg.op = Comparison::kXor;
    cfg.max_batch_rows = 4;
    cfg.cache_capacity = 0;
    cfg.start_paused = true;  // one deterministic coalescing generation
    svc::ServiceEngine engine(db, cfg);
    std::vector<std::future<svc::QueryResult>> futs;
    futs.reserve(subset.size());
    for (const std::size_t q : subset) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
    engine.resume();
    engine.drain();
    std::vector<std::vector<std::uint32_t>> rows;
    rows.reserve(futs.size());
    for (auto& f : futs) rows.push_back(f.get().row);
    return rows;
  };

  std::vector<std::size_t> all(queries.rows());
  for (std::size_t q = 0; q < all.size(); ++q) all[q] = q;
  const auto whole = serve(all);

  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> q1, q2;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      (rng() % 2 == 0 ? q1 : q2).push_back(q);
    }
    const auto rows1 = serve(q1);
    const auto rows2 = serve(q2);
    ASSERT_EQ(rows1.size() + rows2.size(), whole.size());
    for (std::size_t i = 0; i < q1.size(); ++i) {
      ASSERT_EQ(rows1[i], whole[q1[i]]) << "seed=" << seed << " q=" << q1[i];
    }
    for (std::size_t i = 0; i < q2.size(); ++i) {
      ASSERT_EQ(rows2[i], whole[q2[i]]) << "seed=" << seed << " q=" << q2[i];
    }
  }
}

}  // namespace
}  // namespace snp
