// Async-vs-serial conformance: the thread-pool chunk pipeline behind
// ComputeOptions::threads must be bit-identical to the serial legacy path
// — and both to the naive bitwise reference — for every operation, shape
// (including ragged K tails and degenerate M/N), chunk size, and thread
// count. Also pins the determinism contract: repeated async runs deliver
// identical bytes AND identical chunk-callback order.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"

namespace snp {
namespace {

using bits::Comparison;

struct ConfCase {
  std::size_t m, n, bits;
  std::size_t chunk_rows;  ///< 0 = planner default
  std::size_t threads;
  double density;
  std::uint64_t seed;
};

ComputeOptions async_options(const ConfCase& c) {
  ComputeOptions o;
  o.chunk_rows = c.chunk_rows;
  o.threads = c.threads;
  return o;
}

class AsyncMatchesSerial
    : public ::testing::TestWithParam<std::tuple<ConfCase, Comparison>> {};

TEST_P(AsyncMatchesSerial, CompareOnGpuContext) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed);
  const auto b =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 1);
  const auto expected = bits::compare_reference(a, b, op);

  Context ctx = Context::gpu("gtx980");
  ComputeOptions serial;
  serial.chunk_rows = c.chunk_rows;
  const auto base = ctx.compare(a, b, op, serial);
  ASSERT_TRUE(base.counts == expected) << "serial path deviates";

  const auto async = ctx.compare(a, b, op, async_options(c));
  EXPECT_TRUE(async.counts == expected) << "async deviates from reference";
  EXPECT_TRUE(async.counts == base.counts) << "async deviates from serial";
  // The simulated device timeline must not depend on host threading.
  EXPECT_DOUBLE_EQ(async.timing.h2d_s, base.timing.h2d_s);
  EXPECT_DOUBLE_EQ(async.timing.kernel_s, base.timing.kernel_s);
  EXPECT_DOUBLE_EQ(async.timing.d2h_s, base.timing.d2h_s);
  EXPECT_EQ(async.timing.chunks, base.timing.chunks);
}

TEST_P(AsyncMatchesSerial, CompareOnCpuContext) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed + 2);
  const auto b =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 3);
  const auto expected = bits::compare_reference(a, b, op);

  Context ctx = Context::cpu();
  const auto base = ctx.compare(a, b, op, {});
  ASSERT_TRUE(base.counts == expected);
  const auto async = ctx.compare(a, b, op, async_options(c));
  EXPECT_TRUE(async.counts == expected);
}

TEST_P(AsyncMatchesSerial, IdentitySearchTopMatches) {
  const auto& [c, op] = GetParam();
  (void)op;  // identity search is always XOR
  const auto queries =
      io::random_bitmatrix(c.m, c.bits, c.density, c.seed + 4);
  const auto db =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 5);

  Context ctx = Context::gpu("titanv");
  ComputeOptions serial;
  serial.chunk_rows = c.chunk_rows;
  const auto base = ctx.identity_search(queries, db, serial);
  const auto async = ctx.identity_search(queries, db, async_options(c));
  EXPECT_TRUE(async.comparison.counts == base.comparison.counts);
  EXPECT_EQ(async.best_match, base.best_match);
  EXPECT_EQ(async.best_mismatches, base.best_mismatches);

  const auto stream_base =
      ctx.identity_search_streaming(queries, db, 3, serial);
  const auto stream_async =
      ctx.identity_search_streaming(queries, db, 3, async_options(c));
  ASSERT_EQ(stream_async.top.size(), stream_base.top.size());
  for (std::size_t q = 0; q < stream_base.top.size(); ++q) {
    ASSERT_EQ(stream_async.top[q].size(), stream_base.top[q].size());
    for (std::size_t k = 0; k < stream_base.top[q].size(); ++k) {
      EXPECT_EQ(stream_async.top[q][k].reference_index,
                stream_base.top[q][k].reference_index);
      EXPECT_EQ(stream_async.top[q][k].mismatches,
                stream_base.top[q][k].mismatches);
    }
  }
}

// ~50 sampled tuples: every op x a spread of shapes (ragged K not a
// multiple of 64, M/N below the micro-tile, chunk sizes forcing ragged
// tail chunks) x thread counts 1/2/3/8.
INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncMatchesSerial,
    ::testing::Combine(
        ::testing::Values(
            // Multi-chunk with ragged tail chunk (n % chunk_rows != 0).
            ConfCase{5, 300, 512, 64, 2, 0.4, 100},
            ConfCase{5, 300, 512, 64, 8, 0.4, 100},
            ConfCase{7, 129, 96, 10, 3, 0.5, 200},
            // Ragged K (not a multiple of 64) and tiny M below m_r.
            ConfCase{3, 250, 130, 32, 2, 0.3, 300},
            ConfCase{1, 100, 65, 16, 1, 0.5, 400},
            ConfCase{2, 77, 33, 9, 8, 0.7, 500},
            // Streamed A (queries outnumber the database).
            ConfCase{200, 6, 512, 31, 2, 0.5, 600},
            ConfCase{150, 3, 257, 20, 3, 0.2, 700},
            // Single chunk (chunk_rows > n) and planner-default chunks.
            ConfCase{4, 40, 512, 0, 2, 0.5, 800},
            ConfCase{8, 64, 1024, 128, 2, 0.6, 900},
            // Square-ish, multiple chunks, K with tail words.
            ConfCase{33, 190, 1537, 48, 8, 0.35, 1000},
            ConfCase{16, 512, 320, 100, 2, 0.45, 1100},
            // Exercise max_inflight backpressure: many tiny chunks.
            ConfCase{6, 400, 192, 8, 2, 0.5, 1200},
            ConfCase{6, 400, 192, 8, 8, 0.5, 1200},
            ConfCase{12, 96, 64, 5, 1, 0.9, 1300},
            ConfCase{9, 257, 449, 19, 3, 0.15, 1400},
            ConfCase{64, 64, 640, 16, 8, 0.5, 1500}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

TEST(AsyncDeterminism, RepeatedRunsAreByteAndOrderIdentical) {
  const auto a = io::random_bitmatrix(6, 384, 0.5, 42);
  const auto b = io::random_bitmatrix(330, 384, 0.5, 43);
  Context ctx = Context::gpu("vega64");

  // Serial baseline: counts plus the chunk delivery order.
  ComputeOptions serial;
  serial.chunk_rows = 32;
  std::vector<std::size_t> base_order;
  serial.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    base_order.push_back(v.row0);
  };
  const auto base = ctx.compare(a, b, Comparison::kXor, serial);
  ASSERT_GT(base_order.size(), 1u) << "want a multi-chunk workload";

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (int rep = 0; rep < 5; ++rep) {
      ComputeOptions async;
      async.chunk_rows = 32;
      async.threads = threads;
      std::vector<std::size_t> order;
      async.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
        order.push_back(v.row0);
      };
      const auto r = ctx.compare(a, b, Comparison::kXor, async);
      ASSERT_EQ(r.counts.rows(), base.counts.rows());
      ASSERT_EQ(r.counts.cols(), base.counts.cols());
      const auto raw = r.counts.raw();
      const auto braw = base.counts.raw();
      EXPECT_EQ(0, std::memcmp(raw.data(), braw.data(),
                               braw.size() * sizeof(std::uint32_t)))
          << threads << " threads, rep " << rep;
      EXPECT_EQ(order, base_order)
          << "delivery order drifted at " << threads << " threads";
    }
  }
}

TEST(AsyncDeterminism, CpuEngineMatchesReferenceForAnyPoolSize) {
  const auto a = io::random_bitmatrix(70, 1537, 0.5, 7);
  const auto b = io::random_bitmatrix(133, 1537, 0.3, 8);
  // The default blocking makes two macro-tiles here; the small one makes
  // 81 tiles over 7 k_c panels, so every worker of a pool takes tiles and
  // reuses its B panel across them.
  cpu::CpuBlocking small;
  small.m_c = 8;
  small.k_c = 4;
  small.n_c = 16;
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    const auto expected = bits::compare_reference(a, b, op);
    for (const std::size_t threads :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      exec::ThreadPool pool(threads);
      for (const cpu::CpuBlocking& blocking : {cpu::CpuBlocking{}, small}) {
        bits::CountMatrix got(a.rows(), b.rows());
        cpu::compare_accumulate(a, b, op, got, blocking, pool);
        EXPECT_TRUE(got == expected) << to_string(op) << " with " << threads
                                     << " threads, m_c " << blocking.m_c;
      }
    }
  }
}

TEST(AsyncDeterminism, StreamingMixtureMatchesAcrossThreadCounts) {
  const auto profiles = io::random_bitmatrix(260, 320, 0.4, 77);
  const auto mixtures = io::random_bitmatrix(4, 320, 0.8, 78);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions serial;
  serial.chunk_rows = 48;
  const auto base =
      ctx.mixture_analysis_streaming(profiles, mixtures, 40, serial);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ComputeOptions async = serial;
    async.threads = threads;
    const auto got =
        ctx.mixture_analysis_streaming(profiles, mixtures, 40, async);
    EXPECT_EQ(got.included, base.included) << threads << " threads";
  }
}

TEST(AsyncConformance, ExceptionInChunkCallbackPropagates) {
  const auto a = io::random_bitmatrix(4, 256, 0.5, 9);
  const auto b = io::random_bitmatrix(200, 256, 0.5, 10);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 32;
  opts.threads = 2;
  int fired = 0;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView&) {
    if (++fired == 2) {
      throw std::runtime_error("downstream consumer failed");
    }
  };
  EXPECT_THROW(ctx.compare(a, b, bits::Comparison::kXor, opts),
               std::runtime_error);
}

// Telemetry contract for the chunk pipeline: chunk_events arrive in
// stream order (index i at slot i, row ranges tiling the streamed
// operand) and their simulated timestamps are monotone — each engine
// (h2d, kernel, d2h) is an in-order FIFO and every chunk's stages are
// causally ordered. The async host stamps must respect the task-graph
// dependencies (pack -> execute -> drain, drains chained in order).
TEST(AsyncConformance, ChunkEventsStreamOrderedWithMonotonicTimestamps) {
  const auto a = io::random_bitmatrix(5, 384, 0.5, 13);
  const auto b = io::random_bitmatrix(310, 384, 0.5, 14);
  Context ctx = Context::gpu("gtx980");
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    ComputeOptions opts;
    opts.chunk_rows = 32;
    opts.threads = threads;
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
      if (i > 0) {
        // Each simulated engine is an in-order FIFO.
        const auto& p = evs[i - 1];
        EXPECT_GE(e.h2d_start, p.h2d_end) << "h2d engine overlap";
        EXPECT_GE(e.kernel_start, p.kernel_end) << "kernel engine overlap";
        EXPECT_GE(e.d2h_start, p.d2h_end) << "d2h engine overlap";
      }
      if (threads > 0) {
        // Host wall-clock stamps follow the task-graph dependencies.
        EXPECT_LE(e.host_queued, e.host_pack_start);
        EXPECT_LE(e.host_pack_start, e.host_pack_end);
        EXPECT_LE(e.host_pack_end, e.host_exec_start);
        EXPECT_LE(e.host_exec_start, e.host_exec_end);
        EXPECT_LE(e.host_exec_end, e.host_drain_start);
        EXPECT_LE(e.host_drain_start, e.host_drain_end);
        if (i > 0) {
          EXPECT_GE(e.host_drain_start, evs[i - 1].host_drain_end)
              << "drains must run in stream order";
        }
      }
    }
    EXPECT_EQ(next_row, b.rows()) << "chunks must cover every row once";
  }
}

TEST(AsyncConformance, MaxInflightOneStillCorrect) {
  const auto a = io::random_bitmatrix(5, 192, 0.5, 11);
  const auto b = io::random_bitmatrix(180, 192, 0.5, 12);
  Context ctx = Context::gpu("gtx980");
  const auto expected = bits::compare_reference(a, b, Comparison::kAnd);
  ComputeOptions opts;
  opts.chunk_rows = 16;
  opts.threads = 4;
  opts.max_inflight_chunks = 1;
  const auto got = ctx.compare(a, b, Comparison::kAnd, opts);
  EXPECT_TRUE(got.counts == expected);
}

}  // namespace
}  // namespace snp
