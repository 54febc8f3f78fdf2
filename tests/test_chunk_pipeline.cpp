// Differential suite for the in-place chunk pipeline and the engine:
// both must be bit-identical to the naive reference
// (bits::compare_reference) on random ragged shapes (ragged K tails,
// degenerate M/N, ragged tail chunks), for every operation, chunk size,
// engine pool size and delivery mode, including when the chunk stages
// are retried. Also pins the pipeline's determinism and telemetry
// contracts: repeated runs deliver identical bytes in identical order,
// and every chunk records its simulated and host stage intervals in
// stream order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
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
#include "rt/recovery.hpp"

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

/// Checks that the block at (r0, c0) of `c` holds expected and that every
/// entry outside it still holds the sentinel.
void expect_block(const std::vector<std::uint32_t>& c, std::size_t ldc,
                  std::size_t r0, std::size_t c0,
                  const CountMatrix& expected) {
  for (std::size_t i = 0; i < c.size() / ldc; ++i) {
    for (std::size_t j = 0; j < ldc; ++j) {
      const bool inside = i >= r0 && i < r0 + expected.rows() && j >= c0 &&
                          j < c0 + expected.cols();
      const std::uint32_t want =
          inside ? expected.at(i - r0, j - c0) : kSentinel;
      ASSERT_EQ(c[i * ldc + j], want) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(EngineRectangle, MatchesReferenceOnRandomWindows) {
  std::mt19937_64 rng(20261017);
  exec::ThreadPool inline_pool(0);
  exec::ThreadPool three_workers(3);
  // Tiny blocking crosses every m_c / n_c / k_c edge at these sizes; the
  // default one crosses the 4 x 8 micro-tile edges.
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
          cpu::compare_into(aw, bw, op, c.data() + r0 * ldc + c0, ldc,
                            blocking, *pool);
          expect_block(c, ldc, r0, c0, expected);  // C = AB over sentinels
        }
      }
    }
  }
}

TEST(EngineRectangle, SkinnyWindowsMatchReferenceAcrossTheCrossover) {
  // m = 1 ... 2 m_r query rows from row0 != 0 against a ragged window of a
  // database, into a block at (1, 3) of a sentinel-filled C whose rows are
  // wider than the block: below m_r the skinny path writes the block, from
  // m_r on the blocked one. k spans several panels of each blocking, and a
  // window of the database against itself covers the self shapes.
  constexpr std::size_t m_r = cpu::CpuBlocking::m_r;
  exec::ThreadPool inline_pool(0);
  exec::ThreadPool three_workers(3);
  cpu::CpuBlocking tiny;
  tiny.m_c = 4;
  tiny.k_c = 2;
  tiny.n_c = 8;
  const std::size_t k_bits = 5 * 64 + 17;
  const auto queries = io::random_bitmatrix(2 * m_r + 3, k_bits, 0.5, 51);
  const auto db = io::random_bitmatrix(61, k_bits, 0.4, 52);
  const bits::RowWindow dw{&db, 4, 53};  // ragged: 6 n_c blocks + 5 rows
  const auto db_part = db.row_slice(dw.row0, dw.row0 + dw.rows);
  const std::size_t ldc = dw.rows + 7;
  for (std::size_t m = 1; m <= 2 * m_r; ++m) {
    const bits::RowWindow qw{&queries, 2, m};
    const bits::RowWindow self{&db, 9, m};
    const auto q_part = queries.row_slice(2, 2 + m);
    const auto self_part = db.row_slice(9, 9 + m);
    for (const Comparison op : kOps) {
      const CountMatrix expected = bits::compare_reference(q_part, db_part, op);
      const CountMatrix self_expected =
          bits::compare_reference(self_part, self_part, op);
      for (const cpu::CpuBlocking& blocking : {cpu::CpuBlocking{}, tiny}) {
        for (exec::ThreadPool* pool : {&inline_pool, &three_workers}) {
          SCOPED_TRACE(std::to_string(m) + " rows, op " +
                       std::to_string(static_cast<int>(op)) + ", n_c " +
                       std::to_string(blocking.n_c) + ", workers " +
                       std::to_string(pool->thread_count()));
          auto c = sentinel_buffer(m + 3, ldc);
          cpu::compare_into(qw, dw, op, c.data() + ldc + 3, ldc, blocking,
                            *pool);
          expect_block(c, ldc, 1, 3, expected);
          auto cs = sentinel_buffer(m + 3, ldc);
          cpu::compare_into(self, self, op, cs.data() + ldc + 3, ldc,
                            blocking, *pool);
          expect_block(cs, ldc, 1, 3, self_expected);
        }
      }
    }
  }
}

TEST(EngineRectangle, RejectsWindowsOutOfRange) {
  const auto a = io::random_bitmatrix(4, 64, 0.5, 1);
  std::vector<std::uint32_t> c(16);
  EXPECT_THROW(cpu::compare_into({&a, 2, 3}, {&a, 0, 4}, Comparison::kAnd,
                                 c.data(), 4),
               std::invalid_argument);
  EXPECT_THROW(cpu::compare_into({&a, 0, 4}, {&a, 0, 4}, Comparison::kAnd,
                                 c.data(), 3),
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
  expect_block(c, ldc, 1, 2, expected);
}

TEST(EngineFullMatrix, CpuEngineMatchesReferenceForAnyPoolSize) {
  const auto a = io::random_bitmatrix(70, 1537, 0.5, 7);
  const auto b = io::random_bitmatrix(133, 1537, 0.3, 8);
  // The default blocking makes two macro-tiles here; the small one makes
  // 81 tiles over 7 k_c panels, so every worker of a pool takes tiles and
  // reuses its B panel across them.
  cpu::CpuBlocking small;
  small.m_c = 8;
  small.k_c = 4;
  small.n_c = 16;
  for (const Comparison op : kOps) {
    const CountMatrix expected = bits::compare_reference(a, b, op);
    for (const std::size_t threads :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      exec::ThreadPool pool(threads);
      for (const cpu::CpuBlocking& blocking : {cpu::CpuBlocking{}, small}) {
        CountMatrix got(a.rows(), b.rows());
        std::fill(got.raw().begin(), got.raw().end(), kSentinel);
        cpu::compare_into(a, b, op, got, blocking, pool);
        EXPECT_TRUE(got == expected) << to_string(op) << " with " << threads
                                     << " threads, m_c " << blocking.m_c;
      }
    }
  }
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
  // B streams when n >= m, A otherwise. Rows straddle the 4 x 8
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
        for (const Mode mode : {Mode::kCounts, Mode::kCallback,
                                Mode::kBoth}) {
          SCOPED_TRACE("shape " + std::to_string(s.m) + "x" +
                       std::to_string(s.n) + "x" +
                       std::to_string(s.bit_cols) + " op " +
                       std::to_string(static_cast<int>(op)) + " chunk " +
                       std::to_string(chunk_rows) + " mode " +
                       std::to_string(static_cast<int>(mode)));
          ComputeOptions opts = base;
          opts.chunk_rows = chunk_rows;
          const PipelineRun run = run_pipeline(ctx, a, b, op, opts, mode);
          expect_run(run, expected, stream_b, mode);
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
  for (const Mode mode : {Mode::kCounts, Mode::kBoth}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    ComputeOptions opts;
    opts.chunk_rows = 16;
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

TEST(ChunkPipeline, RepeatedRunsAreByteAndOrderIdentical) {
  const auto a = io::random_bitmatrix(6, 384, 0.5, 42);
  const auto b = io::random_bitmatrix(330, 384, 0.5, 43);
  const CountMatrix expected =
      bits::compare_reference(a, b, Comparison::kXor);
  Context ctx = Context::gpu("vega64");
  CountMatrix first;
  std::vector<std::size_t> first_order;
  for (int rep = 0; rep < 5; ++rep) {
    ComputeOptions opts;
    opts.chunk_rows = 32;
    std::vector<std::size_t> order;
    opts.chunk_callback = [&order](const ComputeOptions::ChunkView& v) {
      order.push_back(v.row0);
    };
    const auto r = ctx.compare(a, b, Comparison::kXor, opts);
    ASSERT_TRUE(r.counts == expected) << "rep " << rep;
    if (rep == 0) {
      ASSERT_GT(order.size(), 1u) << "want a multi-chunk workload";
      first = r.counts;
      first_order = order;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(r.counts.raw().data(), first.raw().data(),
                             first.raw().size() * sizeof(std::uint32_t)))
        << "rep " << rep;
    EXPECT_EQ(order, first_order) << "delivery order drifted at rep " << rep;
  }
}

TEST(ChunkPipeline, StreamingMixtureMatchesFullAndReference) {
  const auto profiles = io::random_bitmatrix(260, 320, 0.4, 77);
  const auto mixtures = io::random_bitmatrix(4, 320, 0.8, 78);
  constexpr std::uint32_t kTolerance = 40;
  const CountMatrix gamma =
      bits::compare_reference(profiles, mixtures, Comparison::kAndNot);
  std::vector<std::vector<std::size_t>> expected(mixtures.rows());
  for (std::size_t p = 0; p < profiles.rows(); ++p) {
    for (std::size_t m = 0; m < mixtures.rows(); ++m) {
      if (gamma.at(p, m) <= kTolerance) {
        expected[m].push_back(p);
      }
    }
  }
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 48;
  EXPECT_EQ(ctx.mixture_analysis(profiles, mixtures, kTolerance, opts)
                .included,
            expected);
  EXPECT_EQ(
      ctx.mixture_analysis_streaming(profiles, mixtures, kTolerance, opts)
          .included,
      expected);
}

TEST(ChunkPipeline, ExceptionInChunkCallbackPropagates) {
  const auto a = io::random_bitmatrix(4, 256, 0.5, 9);
  const auto b = io::random_bitmatrix(200, 256, 0.5, 10);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 32;
  int fired = 0;
  opts.chunk_callback = [&fired](const ComputeOptions::ChunkView&) {
    if (++fired == 2) {
      throw std::runtime_error("downstream consumer failed");
    }
  };
  EXPECT_THROW(ctx.compare(a, b, bits::Comparison::kXor, opts),
               std::runtime_error);
  EXPECT_EQ(fired, 2) << "the stream must stop at the failed chunk";
}

// Telemetry contract for the chunk pipeline: chunk_events arrive in
// stream order (index i at slot i, row ranges tiling the streamed
// operand) and their simulated timestamps are monotone — each engine
// (h2d, kernel, d2h) is an in-order FIFO and every chunk's stages are
// causally ordered. Every chunk also carries its host stage stamps:
// pack -> execute -> drain, with drains in stream order.
TEST(ChunkPipeline, ChunkEventsStreamOrderedWithMonotonicTimestamps) {
  const auto a = io::random_bitmatrix(5, 384, 0.5, 13);
  const auto b = io::random_bitmatrix(310, 384, 0.5, 14);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 32;
  const auto r = ctx.compare(a, b, Comparison::kXor, opts);
  const auto& evs = r.timing.chunk_events;
  ASSERT_GT(evs.size(), 1u) << "want a multi-chunk workload";
  std::size_t next_row = 0;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& e = evs[i];
    EXPECT_EQ(e.index, i) << "chunk out of stream order";
    EXPECT_EQ(e.row0, next_row) << "row ranges must tile the operand";
    ASSERT_GT(e.rows, 0u);
    next_row += e.rows;

    // Within a chunk the simulated stages are causally ordered.
    EXPECT_LE(e.h2d_start, e.h2d_end);
    EXPECT_LE(e.h2d_end, e.kernel_start) << "kernel before its upload";
    EXPECT_LE(e.kernel_start, e.kernel_end);
    EXPECT_LE(e.kernel_end, e.d2h_start) << "readback before kernel";
    EXPECT_LE(e.d2h_start, e.d2h_end);

    // Host wall-clock stamps follow the stage order.
    EXPECT_LT(e.host_pack_start, e.host_drain_end) << "host stages unstamped";
    EXPECT_LE(e.host_pack_start, e.host_pack_end);
    EXPECT_LE(e.host_pack_end, e.host_exec_start);
    EXPECT_LE(e.host_exec_start, e.host_exec_end);
    EXPECT_LE(e.host_exec_end, e.host_drain_start);
    EXPECT_LE(e.host_drain_start, e.host_drain_end);
    if (i > 0) {
      // Each simulated engine is an in-order FIFO.
      const auto& p = evs[i - 1];
      EXPECT_GE(e.h2d_start, p.h2d_end) << "h2d engine overlap";
      EXPECT_GE(e.kernel_start, p.kernel_end) << "kernel engine overlap";
      EXPECT_GE(e.d2h_start, p.d2h_end) << "d2h engine overlap";
      EXPECT_GE(e.host_drain_start, p.host_drain_end)
          << "drains must run in stream order";
    }
  }
  EXPECT_EQ(next_row, b.rows()) << "chunks must cover every row once";
}

TEST(ChunkPipeline, StagesRunOnTheCallingThread) {
  // Each chunk's drain, and so its callback, runs inside the chunk's
  // enqueue on the thread that called compare(), in stream order.
  const auto a = io::random_bitmatrix(4, 256, 0.5, 15);
  const auto b = io::random_bitmatrix(150, 256, 0.5, 16);
  Context ctx = Context::gpu("titanv");
  ComputeOptions opts;
  opts.chunk_rows = 16;
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::size_t foreign = 0;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    if (std::this_thread::get_id() != caller) {
      ++foreign;
    }
    order.push_back(v.row0);
  };
  const auto r = ctx.compare(a, b, Comparison::kXor, opts);
  EXPECT_TRUE(r.counts == bits::compare_reference(a, b, Comparison::kXor));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(r.timing.chunks));
  EXPECT_EQ(foreign, 0u) << "a chunk drained off the calling thread";
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i * opts.chunk_rows) << "chunk " << i;
  }
}

TEST(ChunkPipeline, CancelFromTheConsumerStopsAtTheNextChunkBoundary) {
  // The consumer fires the token while chunk 2 drains; the checkpoint at
  // chunk 3's boundary stops the stream with the token's status, so no
  // later chunk is computed or delivered.
  const auto a = io::random_bitmatrix(4, 256, 0.5, 19);
  const auto b = io::random_bitmatrix(150, 256, 0.5, 20);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 16;
  opts.cancel = std::make_shared<rt::CancelToken>();
  std::size_t fired = 0;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView&) {
    if (++fired == 3) {
      opts.cancel->cancel(
          rt::Status::failure(rt::ErrorCode::kCancelled, "consumer done"));
    }
  };
  try {
    (void)ctx.compare(a, b, Comparison::kXor, opts);
    FAIL() << "expected rt::Error";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kCancelled);
  }
  EXPECT_EQ(fired, 3u) << "a chunk past the cancel was delivered";
}

TEST(ChunkPipeline, EveryDeviceStampsHostStagesOnEitherStreamedOperand) {
  // The host stage stamps are filled on every functional run: on each
  // simulated device, whether B (more database rows) or A (more queries)
  // streams, one event per chunk with pack -> execute -> drain ordered.
  const auto few = io::random_bitmatrix(3, 320, 0.5, 17);
  const auto many = io::random_bitmatrix(120, 320, 0.5, 18);
  for (const char* device : {"gtx980", "titanv", "vega64"}) {
    for (const bool stream_b : {true, false}) {
      SCOPED_TRACE(std::string(device) + (stream_b ? " B" : " A") +
                   " streams");
      const bits::BitMatrix& a = stream_b ? few : many;
      const bits::BitMatrix& b = stream_b ? many : few;
      Context ctx = Context::gpu(device);
      ComputeOptions opts;
      opts.chunk_rows = 25;
      const auto r = ctx.compare(a, b, Comparison::kAnd, opts);
      EXPECT_TRUE(r.counts ==
                  bits::compare_reference(a, b, Comparison::kAnd));
      const auto& evs = r.timing.chunk_events;
      ASSERT_EQ(evs.size(), static_cast<std::size_t>(r.timing.chunks));
      ASSERT_EQ(evs.size(), 5u) << "120 streamed rows in chunks of 25";
      for (const auto& e : evs) {
        EXPECT_LT(e.host_pack_start, e.host_drain_end)
            << "chunk " << e.index << " unstamped";
        EXPECT_LE(e.host_pack_end, e.host_exec_start);
        EXPECT_LE(e.host_exec_end, e.host_drain_start);
      }
    }
  }
}

struct ShapeCase {
  std::size_t m, n, bits;
  std::size_t chunk_rows;  ///< 0 = planner default
  double density;
  std::uint64_t seed;
};

class ChunkShapes
    : public ::testing::TestWithParam<std::tuple<ShapeCase, Comparison>> {};

TEST_P(ChunkShapes, CompareOnGpuContext) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed);
  const auto b =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 1);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = c.chunk_rows;
  EXPECT_TRUE(ctx.compare(a, b, op, opts).counts ==
              bits::compare_reference(a, b, op));
}

TEST_P(ChunkShapes, CompareOnCpuContext) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed + 2);
  const auto b =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 3);
  Context ctx = Context::cpu();
  EXPECT_TRUE(ctx.compare(a, b, op).counts ==
              bits::compare_reference(a, b, op));
}

TEST_P(ChunkShapes, IdentitySearchFullAndStreamingMatchReference) {
  const auto& [c, op] = GetParam();
  (void)op;  // identity search is always XOR
  const auto queries =
      io::random_bitmatrix(c.m, c.bits, c.density, c.seed + 4);
  const auto db =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 5);
  const CountMatrix expected =
      bits::compare_reference(queries, db, Comparison::kXor);

  Context ctx = Context::gpu("titanv");
  ComputeOptions opts;
  opts.chunk_rows = c.chunk_rows;
  const auto full = ctx.identity_search(queries, db, opts);
  EXPECT_TRUE(full.comparison.counts == expected);
  constexpr std::size_t kTop = 3;
  const auto streamed =
      ctx.identity_search_streaming(queries, db, kTop, opts);
  ASSERT_EQ(streamed.top.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    // The reference ranking: ascending mismatches, ties by index.
    std::vector<std::pair<std::uint32_t, std::size_t>> ranked;
    for (std::size_t j = 0; j < db.rows(); ++j) {
      ranked.emplace_back(expected.at(q, j), j);
    }
    std::sort(ranked.begin(), ranked.end());
    EXPECT_EQ(full.best_match[q], ranked.front().second);
    EXPECT_EQ(full.best_mismatches[q], ranked.front().first);
    const auto& top = streamed.top[q];
    ASSERT_EQ(top.size(), std::min(kTop, db.rows()));
    for (std::size_t k = 0; k < top.size(); ++k) {
      EXPECT_EQ(top[k].reference_index, ranked[k].second);
      EXPECT_EQ(top[k].mismatches, ranked[k].first);
    }
  }
}

// Every op x a spread of shapes: ragged K not a multiple of 64, M/N below
// the micro-tile, chunk sizes forcing ragged tail chunks.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ChunkShapes,
    ::testing::Combine(
        ::testing::Values(
            // Multi-chunk with ragged tail chunk (n % chunk_rows != 0).
            ShapeCase{5, 300, 512, 64, 0.4, 100},
            ShapeCase{7, 129, 96, 10, 0.5, 200},
            // Ragged K (not a multiple of 64) and tiny M below m_r.
            ShapeCase{3, 250, 130, 32, 0.3, 300},
            ShapeCase{1, 100, 65, 16, 0.5, 400},
            ShapeCase{2, 77, 33, 9, 0.7, 500},
            // Streamed A (queries outnumber the database).
            ShapeCase{200, 6, 512, 31, 0.5, 600},
            ShapeCase{150, 3, 257, 20, 0.2, 700},
            // Single chunk (chunk_rows > n) and planner-default chunks.
            ShapeCase{4, 40, 512, 0, 0.5, 800},
            ShapeCase{8, 64, 1024, 128, 0.6, 900},
            // Square-ish, multiple chunks, K with tail words.
            ShapeCase{33, 190, 1537, 48, 0.35, 1000},
            ShapeCase{16, 512, 320, 100, 0.45, 1100},
            // Many tiny chunks, down to one row per chunk.
            ShapeCase{6, 400, 192, 8, 0.5, 1200},
            ShapeCase{12, 96, 64, 5, 0.9, 1300},
            ShapeCase{9, 257, 449, 19, 0.15, 1400},
            ShapeCase{64, 64, 640, 16, 0.5, 1500},
            ShapeCase{5, 70, 200, 1, 0.5, 1600},
            // Chunks that tile the operand exactly (no ragged tail).
            ShapeCase{4, 256, 128, 64, 0.5, 1700}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

}  // namespace
}  // namespace snp
