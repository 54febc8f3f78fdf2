// Differential suite for the in-place chunk pipeline and the engine's
// rectangle form: both must be bit-identical to the naive reference
// (bits::compare_reference) on random ragged shapes, for every operation,
// chunk size, thread count, engine pool size and delivery mode, including
// when the pool stages are retried.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"
#include "kern/gpu_kernel.hpp"
#include "model/config.hpp"
#include "model/device.hpp"
#include "rt/fault.hpp"

namespace snp {
namespace {

using bits::Comparison;
using bits::CountMatrix;

constexpr Comparison kOps[] = {Comparison::kAnd, Comparison::kXor,
                               Comparison::kAndNot};
constexpr std::uint32_t kSentinel = 0xA5A5A5A5u;

/// A C buffer of `rows` x `ldc` sentinels.
std::vector<std::uint32_t> sentinel_buffer(std::size_t rows,
                                           std::size_t ldc) {
  return std::vector<std::uint32_t>(rows * ldc, kSentinel);
}

/// Checks that the block at (r0, c0) of `c` holds base + expected and that
/// every entry outside it still holds the sentinel.
void expect_block(const std::vector<std::uint32_t>& c, std::size_t ldc,
                  std::size_t r0, std::size_t c0, const CountMatrix& expected,
                  std::uint32_t base) {
  for (std::size_t i = 0; i < c.size() / ldc; ++i) {
    for (std::size_t j = 0; j < ldc; ++j) {
      const bool inside = i >= r0 && i < r0 + expected.rows() && j >= c0 &&
                          j < c0 + expected.cols();
      const std::uint32_t want =
          inside ? base + expected.at(i - r0, j - c0) : kSentinel;
      ASSERT_EQ(c[i * ldc + j], want) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(EngineRectangle, MatchesReferenceOnRandomWindows) {
  std::mt19937_64 rng(20261017);
  exec::ThreadPool inline_pool(0);
  exec::ThreadPool three_workers(3);
  // Tiny blocking crosses every m_c / n_c / k_c edge at these sizes; the
  // default one crosses the 4 x 4 micro-tile edges.
  cpu::CpuBlocking tiny;
  tiny.m_c = 8;
  tiny.k_c = 2;
  tiny.n_c = 8;
  const std::size_t widths[] = {1, 63, 64, 65, 200, 1100};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t bit_cols = widths[rng() % std::size(widths)];
    const std::size_t a_rows = 1 + rng() % 37;
    const std::size_t b_rows = 1 + rng() % 37;
    const auto a = io::random_bitmatrix(a_rows, bit_cols, 0.5, rng());
    const auto b = io::random_bitmatrix(b_rows, bit_cols, 0.4, rng());
    bits::RowWindow aw{&a, rng() % a_rows, 0};
    aw.rows = 1 + rng() % (a_rows - aw.row0);
    bits::RowWindow bw{&b, rng() % b_rows, 0};
    bw.rows = 1 + rng() % (b_rows - bw.row0);
    const auto a_part = a.row_slice(aw.row0, aw.row0 + aw.rows);
    const auto b_part = b.row_slice(bw.row0, bw.row0 + bw.rows);
    // The block sits at (r0, c0) of a larger C with a wider stride.
    const std::size_t ldc = bw.rows + rng() % 5;
    const std::size_t r0 = rng() % 3;
    const std::size_t c0 = rng() % (ldc - bw.rows + 1);
    for (const Comparison op : kOps) {
      const CountMatrix expected =
          bits::compare_reference(a_part, b_part, op);
      for (const cpu::CpuBlocking& blocking : {cpu::CpuBlocking{}, tiny}) {
        for (exec::ThreadPool* pool : {&inline_pool, &three_workers}) {
          SCOPED_TRACE("trial " + std::to_string(trial) + " op " +
                       std::to_string(static_cast<int>(op)) + " m_c " +
                       std::to_string(blocking.m_c) + " workers " +
                       std::to_string(pool->thread_count()));
          auto c = sentinel_buffer(r0 + aw.rows + 2, ldc);
          cpu::compare_accumulate(aw, bw, op, c.data() + r0 * ldc + c0, ldc,
                                  blocking, *pool);
          expect_block(c, ldc, r0, c0, expected, kSentinel);  // C += AB
        }
      }
    }
  }
}

TEST(EngineRectangle, RejectsWindowsOutOfRange) {
  const auto a = io::random_bitmatrix(4, 64, 0.5, 1);
  std::vector<std::uint32_t> c(16);
  EXPECT_THROW(cpu::compare_accumulate({&a, 2, 3}, {&a, 0, 4},
                                       Comparison::kAnd, c.data(), 4),
               std::invalid_argument);
  EXPECT_THROW(cpu::compare_accumulate({&a, 0, 4}, {&a, 0, 4},
                                       Comparison::kAnd, c.data(), 3),
               std::invalid_argument);
}

TEST(EngineRectangle, KernelOverwriteZeroesItsBlockFirst) {
  // The pipeline's execute stage overwrites its block of the gamma
  // matrix: running it again over a block it already wrote (a retried
  // body) must leave the counts, not twice the counts.
  const auto dev = model::gtx980();
  const kern::GpuSnpKernel kernel(
      dev, model::paper_preset(dev, model::WorkloadKind::kLd),
      Comparison::kXor);
  const auto a = io::random_bitmatrix(9, 300, 0.5, 41);
  const auto b = io::random_bitmatrix(13, 300, 0.5, 42);
  const bits::RowWindow aw{&a, 2, 6};
  const bits::RowWindow bw{&b, 3, 7};
  const CountMatrix expected = bits::compare_reference(
      a.row_slice(2, 8), b.row_slice(3, 10), Comparison::kXor);
  const std::size_t ldc = 11;
  auto c = sentinel_buffer(8, ldc);
  std::uint32_t* block = c.data() + 1 * ldc + 2;
  kernel.execute(aw, bw, block, ldc);
  kernel.execute(aw, bw, block, ldc);
  expect_block(c, ldc, 1, 2, expected, 0);
  // Accumulating instead adds the counts a second time.
  kernel.execute(aw, bw, block, ldc, /*accumulate=*/true);
  CountMatrix doubled = expected;
  for (auto& v : doubled.raw()) v *= 2;
  expect_block(c, ldc, 1, 2, doubled, 0);
}

struct Delivered {
  std::size_t row0 = 0;
  bool streamed_b = true;
  CountMatrix part;
};

/// Checks the delivered blocks against the reference: in stream order,
/// tiling the streamed operand once, each block bit-identical.
void expect_deliveries(const std::vector<Delivered>& got,
                       const CountMatrix& expected, bool stream_b) {
  std::size_t next = 0;
  for (const Delivered& d : got) {
    ASSERT_EQ(d.streamed_b, stream_b);
    ASSERT_EQ(d.row0, next) << "chunk delivered out of stream order";
    const std::size_t rows = stream_b ? d.part.cols() : d.part.rows();
    ASSERT_EQ(stream_b ? d.part.rows() : d.part.cols(),
              stream_b ? expected.rows() : expected.cols());
    for (std::size_t i = 0; i < d.part.rows(); ++i) {
      for (std::size_t j = 0; j < d.part.cols(); ++j) {
        const std::uint32_t want = stream_b ? expected.at(i, d.row0 + j)
                                            : expected.at(d.row0 + i, j);
        ASSERT_EQ(d.part.at(i, j), want)
            << "chunk at " << d.row0 << ", entry (" << i << ", " << j << ")";
      }
    }
    next += rows;
  }
  EXPECT_EQ(next, stream_b ? expected.cols() : expected.rows())
      << "chunks must cover every streamed row once";
}

enum class Mode { kCounts, kCallback, kBoth };

struct PipelineRun {
  CompareResult result;
  std::vector<Delivered> delivered;
};

PipelineRun run_pipeline(Context& ctx, const bits::BitMatrix& a,
                         const bits::BitMatrix& b, Comparison op,
                         ComputeOptions opts, Mode mode) {
  PipelineRun run;
  opts.keep_counts = mode != Mode::kCallback;
  if (mode != Mode::kCounts) {
    opts.chunk_callback = [&run](const ComputeOptions::ChunkView& v) {
      run.delivered.push_back({v.row0, v.streamed_b, v.part});
    };
  }
  run.result = ctx.compare(a, b, op, opts);
  return run;
}

void expect_run(const PipelineRun& run, const CountMatrix& expected,
                bool stream_b, Mode mode) {
  if (mode == Mode::kCallback) {
    EXPECT_EQ(run.result.counts.rows(), 0u);
  } else {
    EXPECT_TRUE(run.result.counts == expected) << "counts deviate";
  }
  if (mode == Mode::kCounts) {
    EXPECT_TRUE(run.delivered.empty());
  } else {
    expect_deliveries(run.delivered, expected, stream_b);
  }
}

TEST(ChunkPipeline, InPlaceStagesMatchReference) {
  struct Shape {
    std::size_t m, n, bit_cols;
  };
  // B streams when n >= m, A otherwise. Rows straddle the 4 x 4
  // micro-tile and the engine's 64-row m_c block; one B exceeds its
  // 2,048-row n_c block; K runs from one bit to past a 64-bit word.
  const Shape shapes[] = {{3, 37, 65},  {1, 130, 1},  {33, 33, 200},
                          {70, 9, 127}, {66, 5, 1100}, {2, 2101, 70}};
  Context ctx = Context::gpu("gtx980");
  std::uint64_t seed = 500;
  for (const Shape& s : shapes) {
    const auto a = io::random_bitmatrix(s.m, s.bit_cols, 0.5, ++seed);
    const auto b = io::random_bitmatrix(s.n, s.bit_cols, 0.45, ++seed);
    const bool stream_b = s.n >= s.m;
    const std::size_t streamed = stream_b ? s.n : s.m;
    for (const Comparison op : kOps) {
      const CountMatrix expected = bits::compare_reference(a, b, op);
      ComputeOptions base;
      base.lint = false;
      const model::KernelConfig cfg = ctx.effective_config(a, b, op, base);
      const auto tile =
          static_cast<std::size_t>(stream_b ? cfg.n_r : cfg.m_c);
      for (const std::size_t chunk_rows :
           {tile, std::size_t{7}, streamed}) {
        for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
          for (const Mode mode : {Mode::kCounts, Mode::kCallback,
                                  Mode::kBoth}) {
            SCOPED_TRACE("shape " + std::to_string(s.m) + "x" +
                         std::to_string(s.n) + "x" +
                         std::to_string(s.bit_cols) + " op " +
                         std::to_string(static_cast<int>(op)) + " chunk " +
                         std::to_string(chunk_rows) + " threads " +
                         std::to_string(threads) + " mode " +
                         std::to_string(static_cast<int>(mode)));
            ComputeOptions opts = base;
            opts.chunk_rows = chunk_rows;
            opts.threads = threads;
            const PipelineRun run = run_pipeline(ctx, a, b, op, opts, mode);
            expect_run(run, expected, stream_b, mode);
          }
        }
      }
    }
  }
}

TEST(ChunkPipeline, RetriedStagesStayBitIdentical) {
  // Every stage body samples the pool site inside its own retry scope, so
  // with p = 0.4 many pack, execute and drain attempts fail and re-run.
  // The counts written in place and the delivered blocks must still equal
  // the reference: a re-run execute overwrites its block.
  const auto a = io::random_bitmatrix(5, 300, 0.5, 61);
  const auto b = io::random_bitmatrix(200, 300, 0.5, 62);
  const CountMatrix expected =
      bits::compare_reference(a, b, Comparison::kXor);
  Context ctx = Context::gpu("gtx980");
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    for (const Mode mode : {Mode::kCounts, Mode::kBoth}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      ComputeOptions opts;
      opts.chunk_rows = 16;
      opts.threads = threads;
      opts.recovery.max_attempts = 32;
      opts.recovery.backoff_base_s = 0.0;
      opts.recovery.backoff_max_s = 0.0;
      const rt::ScopedFaultPlan plan("pool:p=0.4:seed=17");
      const PipelineRun run =
          run_pipeline(ctx, a, b, Comparison::kXor, opts, mode);
      expect_run(run, expected, /*stream_b=*/true, mode);
      std::size_t execute_retries = 0;
      for (const auto& ev : run.result.timing.fault_events) {
        if (ev.site == "pool.execute" && ev.action == "retry") {
          ++execute_retries;
        }
      }
      EXPECT_GT(execute_retries, 0u) << "the plan never retried an execute";
      EXPECT_FALSE(run.result.timing.degraded);
    }
  }
}

}  // namespace
}  // namespace snp
