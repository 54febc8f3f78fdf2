// ServiceEngine conformance suite (PR 6): batching must be invisible —
// every coalesced result row bit-identical to a serial per-query
// core::compare — across device presets x ops x batch widths, under
// multi-threaded submission, under fault injection (exactly-once), and
// across cache/epoch and admission-control state changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"
#include "obs/obs.hpp"
#include "rt/fault.hpp"
#include "svc/packed_row.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using svc::QueryResult;
using svc::ServiceConfig;
using svc::ServiceEngine;

/// Serial per-query ground truth: one compare() per query row, abort
/// policy, no batching anywhere.
std::vector<std::vector<std::uint32_t>> serial_rows(const std::string& device,
                                                    const BitMatrix& queries,
                                                    const BitMatrix& db,
                                                    Comparison op) {
  Context ctx =
      device == "cpu" ? Context::cpu() : Context::gpu(device);
  std::vector<std::vector<std::uint32_t>> rows;
  rows.reserve(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    ComputeOptions copts;
    copts.recovery.policy = rt::FailPolicy::kAbort;
    copts.lint = false;
    const auto r =
        ctx.compare(queries.row_slice(q, q + 1), db, op, copts);
    const auto span = r.counts.raw();
    rows.emplace_back(span.begin(), span.end());
  }
  return rows;
}

ServiceConfig base_config(const std::string& device, Comparison op,
                          std::size_t width) {
  ServiceConfig cfg;
  cfg.device = device;
  cfg.op = op;
  cfg.max_batch_rows = width;
  cfg.cache_capacity = 0;  // force real computation in conformance sweeps
  cfg.recovery.policy = rt::FailPolicy::kAbort;
  cfg.recovery.backoff_base_s = 0.0;
  cfg.start_paused = true;
  return cfg;
}

TEST(ServiceConformance, BitIdenticalAcrossPresetsOpsAndWidths) {
  const BitMatrix db = io::random_bitmatrix(61, 256, 0.5, 601);
  const BitMatrix queries = io::random_bitmatrix(17, 256, 0.4, 602);
  for (const std::string device : {"gtx980", "titanv", "vega64"}) {
    for (const Comparison op :
         {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
      const auto expected = serial_rows(device, queries, db, op);
      for (const std::size_t width : {1UL, 8UL, 32UL}) {
        ServiceEngine engine(db, base_config(device, op, width));
        std::vector<std::future<QueryResult>> futs;
        for (std::size_t q = 0; q < queries.rows(); ++q) {
          futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
        }
        engine.resume();
        engine.drain();
        for (std::size_t q = 0; q < queries.rows(); ++q) {
          const QueryResult r = futs[q].get();
          ASSERT_EQ(r.row, expected[q])
              << device << " " << to_string(op) << " width=" << width
              << " query=" << q;
          EXPECT_LE(r.batch_rows, width);
          EXPECT_FALSE(r.cache_hit);
        }
        const auto s = engine.stats();
        EXPECT_EQ(s.completed, queries.rows());
        EXPECT_EQ(s.failed, 0U);
        EXPECT_EQ(s.max_batch_rows, std::min(width, queries.rows()));
        // Paused backlog release coalesces FIFO: batch count is exact.
        EXPECT_EQ(s.batches, (queries.rows() + width - 1) / width);
      }
    }
  }
}

TEST(ServiceConformance, MixedWidthMultiThreadedSubmissionIsInvisible) {
  const BitMatrix db = io::random_bitmatrix(53, 192, 0.5, 611);
  const BitMatrix queries = io::random_bitmatrix(24, 192, 0.35, 612);
  const auto expected = serial_rows("titanv", queries, db, Comparison::kXor);

  ServiceConfig cfg = base_config("titanv", Comparison::kXor, 8);
  cfg.start_paused = false;  // live dispatcher: widths emerge from timing
  ServiceEngine engine(db, cfg);

  constexpr std::size_t kClients = 4;
  std::vector<std::future<QueryResult>> futs(queries.rows());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 jitter(913 + static_cast<unsigned>(c));
      std::uniform_int_distribution<int> delay_us(0, 120);
      for (std::size_t q = c; q < queries.rows(); q += kClients) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(delay_us(jitter)));
        futs[q] = engine.submit(queries.row_slice(q, q + 1));
      }
    });
  }
  for (auto& t : clients) t.join();
  engine.drain();

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(futs[q].get().row, expected[q]) << "query=" << q;
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.completed, queries.rows());
  EXPECT_GE(s.batches, (queries.rows() + 7) / 8);  // widths never exceed 8
}

TEST(ServiceConformance, PreNegatedAndNotMatchesDirectAndNot) {
  const BitMatrix db = io::random_bitmatrix(47, 160, 0.5, 621);
  const BitMatrix queries = io::random_bitmatrix(9, 160, 0.4, 622);
  const auto expected =
      serial_rows("vega64", queries, db, Comparison::kAndNot);

  ServiceConfig cfg = base_config("vega64", Comparison::kAndNot, 8);
  cfg.pre_negate = true;  // stored ~db + AND, Eq. 3's rewrite
  ServiceEngine engine(db, cfg);
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
  }
  engine.resume();
  engine.drain();
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(futs[q].get().row, expected[q]) << "query=" << q;
  }
}

// ---- seeded multi-client fault-injection soak --------------------------

/// 50+ seeds x {retry, failover, degrade}: concurrent clients with
/// arrival jitter, faults planted at launch and readback, and every
/// request must still resolve exactly once with the bit-identical row.
TEST(ServiceSoak, MultiClientFaultInjectionBitIdenticalAndExactlyOnce) {
  const BitMatrix db = io::random_bitmatrix(43, 192, 0.5, 631);
  const BitMatrix queries = io::random_bitmatrix(12, 192, 0.4, 632);
  const auto expected = serial_rows("titanv", queries, db, Comparison::kXor);

  for (const auto policy :
       {rt::FailPolicy::kRetry, rt::FailPolicy::kFailover,
        rt::FailPolicy::kDegrade}) {
    for (int seed = 0; seed < 50; ++seed) {
      rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
          "launch:p=0.05:seed=" + std::to_string(seed) +
          ",readback:p=0.05:seed=" + std::to_string(seed + 1000)));
      ServiceConfig cfg = base_config("titanv", Comparison::kXor, 8);
      cfg.recovery.policy = policy;
      cfg.start_paused = false;
      ServiceEngine engine(db, cfg);

      constexpr std::size_t kClients = 3;
      std::vector<std::future<QueryResult>> futs(queries.rows());
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          std::mt19937 jitter(static_cast<unsigned>(seed) * 17 +
                              static_cast<unsigned>(c));
          std::uniform_int_distribution<int> delay_us(0, 80);
          for (std::size_t q = c; q < queries.rows(); q += kClients) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us(jitter)));
            futs[q] = engine.submit(queries.row_slice(q, q + 1));
          }
        });
      }
      for (auto& t : clients) t.join();
      engine.drain();

      for (std::size_t q = 0; q < queries.rows(); ++q) {
        // get() consumes the future: resolving here proves exactly-once
        // (a double-set would have thrown inside the engine already).
        const QueryResult r = futs[q].get();
        ASSERT_EQ(r.row, expected[q])
            << "policy=" << rt::to_string(policy) << " seed=" << seed
            << " query=" << q;
      }
      const auto s = engine.stats();
      EXPECT_EQ(s.submitted, queries.rows());
      EXPECT_EQ(s.completed, queries.rows());
      EXPECT_EQ(s.failed, 0U)
          << "policy=" << rt::to_string(policy) << " seed=" << seed;
    }
  }
}

// ---- cached row format -------------------------------------------------

/// Encodes `row` and checks that it decodes bit-identically and holds
/// exactly its offsets, block b's at widths[b] bytes per count, plus 5 B
/// per block.
void expect_packs(const std::vector<std::uint32_t>& row,
                  const std::vector<std::size_t>& widths) {
  constexpr std::size_t kBlock = svc::PackedRow::kBlock;
  ASSERT_EQ(widths.size(), (row.size() + kBlock - 1) / kBlock);
  const svc::PackedRow packed(row);
  std::vector<std::uint32_t> out;
  packed.decode(out);
  EXPECT_EQ(out, row) << "row of " << row.size();
  EXPECT_EQ(packed.size(), row.size());
  std::size_t bytes = 0;
  for (std::size_t b = 0; b < widths.size(); ++b) {
    bytes += std::min(kBlock, row.size() - b * kBlock) * widths[b] + 5;
  }
  EXPECT_EQ(packed.size_bytes(), bytes) << "row of " << row.size();
}

/// A block of `n` counts from lo to lo + spread, both ends included.
std::vector<std::uint32_t> block_spanning(std::uint32_t lo,
                                          std::uint32_t spread,
                                          std::size_t n = 256) {
  std::vector<std::uint32_t> block(n);
  for (std::size_t j = 0; j < n; ++j) {
    block[j] = lo + static_cast<std::uint32_t>(
                        (j * 2'654'435'761ULL) % (std::uint64_t{spread} + 1));
  }
  block[n / 3] = lo;
  block[n / 2] = lo + spread;
  return block;
}

TEST(PackedRow, ConstantRowTakesOneBytePerCount) {
  expect_packs(std::vector<std::uint32_t>(600, 368), {1, 1, 1});
}

TEST(PackedRow, RoundTripsEveryBlockRemainder) {
  for (const std::size_t n : {1U, 255U, 256U, 257U, 65'539U}) {
    std::vector<std::uint32_t> row(n);
    std::mt19937 rng(static_cast<unsigned>(n));
    std::uniform_int_distribution<std::uint32_t> gamma(150, 368);
    for (auto& v : row) v = gamma(rng);
    expect_packs(row, std::vector<std::size_t>((n + 255) / 256, 1));
  }
}

TEST(PackedRow, BlockSpreadPicksTheNarrowestWidth) {
  const std::pair<std::uint32_t, std::size_t> cases[] = {
      {255, 1}, {256, 2}, {65'535, 2}, {65'536, 4}};
  for (const auto& [spread, width] : cases) {
    expect_packs(block_spanning(1'000, spread), {width});
    // The spread decides, not the size of the counts.
    expect_packs(block_spanning(3'000'000'000U, spread), {width});
  }
}

TEST(PackedRow, CountsReachUint32Max) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  expect_packs(std::vector<std::uint32_t>(300, kMax), {1, 1});
  expect_packs(block_spanning(kMax - 255, 255), {1});
  expect_packs(block_spanning(kMax - 256, 256), {2});
  expect_packs(block_spanning(0, kMax), {4});
}

TEST(PackedRow, OneRowMixesEveryWidth) {
  std::vector<std::uint32_t> row;
  const std::pair<std::vector<std::uint32_t>, std::size_t> blocks[] = {
      {block_spanning(200, 150), 1},
      {block_spanning(0, 40'000), 2},
      {block_spanning(7, 3'000'000'000U), 4},
      {block_spanning(5, 0), 1},
      {block_spanning(90, 70'000), 4},
      {block_spanning(2, 366, 77), 2}};
  std::vector<std::size_t> widths;
  for (const auto& [block, width] : blocks) {
    row.insert(row.end(), block.begin(), block.end());
    widths.push_back(width);
  }
  expect_packs(row, widths);
}

TEST(PackedRow, DecodeOverwritesALongerVector) {
  const std::vector<std::uint32_t> row = block_spanning(10, 70'000, 300);
  std::vector<std::uint32_t> out(100'000, 0xdeadbeefU);
  svc::PackedRow(row).decode(out);
  EXPECT_EQ(out, row);
}

// ---- result cache ------------------------------------------------------

TEST(ServiceCache, RepeatQueryHitsAndEpochBumpInvalidates) {
  const BitMatrix db1 = io::random_bitmatrix(37, 128, 0.5, 641);
  const BitMatrix db2 = io::random_bitmatrix(37, 128, 0.5, 642);
  const BitMatrix queries = io::random_bitmatrix(3, 128, 0.4, 643);
  const auto vs_db1 = serial_rows("cpu", queries, db1, Comparison::kXor);
  const auto vs_db2 = serial_rows("cpu", queries, db2, Comparison::kXor);

  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 8);
  cfg.cache_capacity = 16;
  cfg.start_paused = false;
  ServiceEngine engine(db1, cfg);

  auto first = engine.submit(queries.row_slice(0, 1));
  engine.drain();
  const QueryResult r1 = first.get();
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.row, vs_db1[0]);
  EXPECT_EQ(r1.epoch, 1U);
  // Its second miss caches the row.
  EXPECT_FALSE(engine.submit(queries.row_slice(0, 1)).get().cache_hit);

  // Same profile again: served from cache, bit-identical, no new batch.
  const auto batches_before = engine.stats().batches;
  const QueryResult r2 = engine.submit(queries.row_slice(0, 1)).get();
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.row, vs_db1[0]);
  EXPECT_EQ(engine.stats().batches, batches_before);
  EXPECT_EQ(engine.stats().cache_hits, 1U);

  // Epoch bump: the same query must be recomputed against db2 — a stale
  // hit here would be a coherence bug.
  engine.update_database(db2);
  EXPECT_EQ(engine.epoch(), 2U);
  auto third = engine.submit(queries.row_slice(0, 1));
  engine.drain();
  const QueryResult r3 = third.get();
  EXPECT_FALSE(r3.cache_hit);
  EXPECT_EQ(r3.epoch, 2U);
  EXPECT_EQ(r3.row, vs_db2[0]);

  // And the new epoch caches too, from the query's second miss in it.
  EXPECT_FALSE(engine.submit(queries.row_slice(0, 1)).get().cache_hit);
  const QueryResult r4 = engine.submit(queries.row_slice(0, 1)).get();
  EXPECT_TRUE(r4.cache_hit);
  EXPECT_EQ(r4.row, vs_db2[0]);
}

TEST(ServiceCache, ConcurrentDatabaseSwapsResolveAgainstTheirEpoch) {
  // One client submits while another swaps the database: every result
  // must be exact against the database of the epoch it reports. Epoch e
  // serves dbs[(e - 1) % 2], because the swapper alternates starting
  // from dbs[1]. The TSan stage of tools/check.sh runs this.
  const std::vector<BitMatrix> dbs{io::random_bitmatrix(41, 192, 0.5, 661),
                                   io::random_bitmatrix(41, 192, 0.5, 662)};
  const BitMatrix queries = io::random_bitmatrix(6, 192, 0.4, 663);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.cache_capacity = 4;
  cfg.start_paused = false;
  ServiceEngine engine(dbs[0], cfg);

  constexpr std::size_t kSubmits = 200;  // below the 256-request queue
  constexpr std::size_t kSwaps = 60;
  std::vector<std::future<QueryResult>> futs;
  futs.reserve(kSubmits);
  std::thread submitter([&] {
    for (std::size_t i = 0; i < kSubmits; ++i) {
      const std::size_t q = i % queries.rows();
      futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
  });
  std::thread swapper([&] {
    for (std::size_t i = 0; i < kSwaps; ++i) {
      engine.update_database(dbs[(i + 1) % 2]);
    }
  });
  submitter.join();
  swapper.join();
  engine.drain();

  EXPECT_EQ(engine.epoch(), kSwaps + 1);
  for (std::size_t i = 0; i < kSubmits; ++i) {
    const std::size_t q = i % queries.rows();
    const QueryResult r = futs[i].get();
    ASSERT_GE(r.epoch, 1U);
    ASSERT_LE(r.epoch, kSwaps + 1);
    const auto expected = bits::compare_reference(
        queries.row_slice(q, q + 1), dbs[(r.epoch - 1) % 2],
        Comparison::kXor);
    const auto want = expected.raw();
    EXPECT_EQ(r.row, std::vector<std::uint32_t>(want.begin(), want.end()))
        << "submit " << i << " epoch " << r.epoch;
  }
}

TEST(ServiceCache, CapacityZeroDisablesCaching) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 651);
  const BitMatrix queries = io::random_bitmatrix(1, 128, 0.4, 652);
  ServiceConfig cfg = base_config("cpu", Comparison::kAnd, 4);
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  // A cache would admit the second miss and serve the third request.
  const auto a = engine.submit(queries).get();
  const auto b = engine.submit(queries).get();
  const auto c = engine.submit(queries).get();
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_FALSE(c.cache_hit);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.row, c.row);
  EXPECT_EQ(engine.stats().cache_hits, 0U);
  EXPECT_EQ(engine.stats().batches, 3U);
}

TEST(ServiceCache, EvictionKeepsCapacityBounded) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 661);
  const BitMatrix queries = io::random_bitmatrix(6, 128, 0.4, 662);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 1);
  cfg.cache_capacity = 2;  // FIFO: only the 2 newest rows stay cached
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    // The second miss caches the row.
    (void)engine.submit(queries.row_slice(q, q + 1)).get();
    (void)engine.submit(queries.row_slice(q, q + 1)).get();
  }
  // Oldest profile was evicted -> recomputed; newest still hits.
  EXPECT_FALSE(engine.submit(queries.row_slice(0, 1)).get().cache_hit);
  EXPECT_TRUE(engine.submit(queries.row_slice(5, 6)).get().cache_hit);
}

TEST(ServiceCache, HitsAreExactAtTheCachedRowWidthBoundary) {
  // Under XOR a profile's complement scores gamma = bit_cols, the largest
  // value a row can hold, and the profile itself 0. Database row 3 is the
  // complement of row 2, so whichever of the two a query is, its row's
  // block spans 0...bit_cols: 2-byte offsets at 65,535 bit columns and
  // 4-byte ones at 65,536.
  for (const std::size_t bit_cols : {65'535U, 65'536U}) {
    BitMatrix db = io::random_bitmatrix(5, bit_cols, 0.5, 671);
    const BitMatrix profile = db.row_slice(2, 3);
    std::ranges::copy(profile.negated().row64(0), db.row64(3).begin());
    ServiceConfig cfg = base_config("cpu", Comparison::kXor, 1);
    cfg.cache_capacity = 4;
    cfg.start_paused = false;
    ServiceEngine engine(db, cfg);
    // Each query with its gamma against database row 2.
    const std::pair<BitMatrix, std::size_t> cases[] = {
        {profile.negated(), bit_cols}, {profile, 0}};
    for (const auto& [query, gamma] : cases) {
      const auto reference =
          bits::compare_reference(query, db, Comparison::kXor);
      const auto want = reference.raw();
      const QueryResult miss = engine.submit(query).get();
      const QueryResult cached = engine.submit(query).get();
      const QueryResult hit = engine.submit(query).get();
      EXPECT_FALSE(miss.cache_hit);
      EXPECT_FALSE(cached.cache_hit);
      ASSERT_TRUE(hit.cache_hit);
      EXPECT_EQ(miss.row, std::vector<std::uint32_t>(want.begin(), want.end()))
          << "bit_cols " << bit_cols;
      EXPECT_EQ(cached.row, miss.row) << "bit_cols " << bit_cols;
      EXPECT_EQ(hit.row, miss.row) << "bit_cols " << bit_cols;
      EXPECT_EQ(hit.row[2], gamma) << "bit_cols " << bit_cols;
      EXPECT_EQ(hit.row[3], bit_cols - gamma) << "bit_cols " << bit_cols;
    }
  }
}

/// Bytes of one cache entry over a 37-profile, 128-bit database: 37
/// one-byte offsets, one 5-B block header and the query's two 64-bit words.
constexpr std::int64_t kEntryBytes = 37 + 5 + 2 * 8;

TEST(ServiceCache, CacheBytesGaugeFollowsInsertsEvictionsAndSwaps) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "svc.cache.bytes is published only with telemetry "
                    "compiled in (SNPCMP_OBS=ON)";
  }
  const BitMatrix db = io::random_bitmatrix(37, 128, 0.5, 681);
  const BitMatrix queries = io::random_bitmatrix(5, 128, 0.4, 682);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 1);
  cfg.cache_capacity = 3;
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  const obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("svc.cache.bytes");
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto held = static_cast<std::int64_t>(std::min<std::size_t>(q, 3));
    // A first miss is not cached.
    (void)engine.submit(queries.row_slice(q, q + 1)).get();
    EXPECT_EQ(gauge.value(), held * kEntryBytes) << "after first miss " << q;
    // The second is, before its future resolves; FIFO eviction past 3
    // entries.
    (void)engine.submit(queries.row_slice(q, q + 1)).get();
    EXPECT_EQ(gauge.value(), std::min<std::int64_t>(held + 1, 3) * kEntryBytes)
        << "after second miss " << q;
  }
  engine.update_database(db);
  EXPECT_EQ(gauge.value(), 0);
}

// Second-miss admission: a row is cached on its query's second miss, so a
// query asked once never costs the cache a row.

TEST(ServiceCache, SecondMissIsAdmittedAndThirdRequestHits) {
  const BitMatrix db = io::random_bitmatrix(37, 128, 0.5, 691);
  const BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 692);
  const auto expected = serial_rows("cpu", query, db, Comparison::kXor);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.cache_capacity = 8;
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  const obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("svc.cache.bytes");
  const obs::Counter& admitted =
      obs::MetricsRegistry::global().counter("svc.cache.admitted");
  const std::uint64_t admitted_before = admitted.value();

  const QueryResult first = engine.submit(query).get();
  EXPECT_FALSE(first.cache_hit);
  if (obs::kEnabled) {
    EXPECT_EQ(gauge.value(), 0) << "first miss was cached";
    EXPECT_EQ(admitted.value(), admitted_before);
  }
  const QueryResult second = engine.submit(query).get();
  EXPECT_FALSE(second.cache_hit);
  if (obs::kEnabled) {
    EXPECT_EQ(gauge.value(), kEntryBytes);
    EXPECT_EQ(admitted.value(), admitted_before + 1);
  }
  const QueryResult third = engine.submit(query).get();
  ASSERT_TRUE(third.cache_hit);
  EXPECT_EQ(first.row, expected[0]);
  EXPECT_EQ(second.row, first.row);
  EXPECT_EQ(third.row, second.row);
  const auto s = engine.stats();
  EXPECT_EQ(s.cache_misses, 2U);
  EXPECT_EQ(s.cache_hits, 1U);
  EXPECT_EQ(s.batches, 2U);
}

TEST(ServiceCache, TwoCopiesInOneBatchMakeOneEntry) {
  const BitMatrix db = io::random_bitmatrix(37, 128, 0.5, 693);
  const BitMatrix queries = io::random_bitmatrix(2, 128, 0.4, 694);
  const auto expected = serial_rows("cpu", queries, db, Comparison::kXor);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 8);
  cfg.cache_capacity = 1024;
  ServiceEngine engine(db, cfg);
  const obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("svc.cache.bytes");
  const BitMatrix fresh = queries.row_slice(0, 1);
  const BitMatrix seen = queries.row_slice(1, 2);
  // `seen` misses once before the batch, so both of its copies in the
  // batch are admitted; of `fresh`'s two copies only the second is.
  auto warm = engine.submit(seen);
  engine.resume();
  engine.drain();
  (void)warm.get();
  engine.pause();
  std::vector<std::future<QueryResult>> futs;
  for (const BitMatrix* q : {&fresh, &seen, &fresh, &seen}) {
    futs.push_back(engine.submit(*q));
  }
  engine.resume();
  engine.drain();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const QueryResult r = futs[i].get();
    EXPECT_FALSE(r.cache_hit) << "copy " << i;
    EXPECT_EQ(r.batch_rows, 4U) << "copy " << i;
    EXPECT_EQ(r.row, expected[i % 2]) << "copy " << i;
  }
  if (obs::kEnabled) {
    EXPECT_EQ(gauge.value(), 2 * kEntryBytes);
  }
  for (std::size_t q = 0; q < 2; ++q) {
    const QueryResult hit = engine.submit(queries.row_slice(q, q + 1)).get();
    ASSERT_TRUE(hit.cache_hit) << "query " << q;
    EXPECT_EQ(hit.row, expected[q]) << "query " << q;
  }
}

TEST(ServiceCache, AMissBeforeASwapDoesNotAdmitTheFirstMissAfterIt) {
  const BitMatrix db1 = io::random_bitmatrix(37, 128, 0.5, 695);
  const BitMatrix db2 = io::random_bitmatrix(37, 128, 0.5, 696);
  const BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 697);
  const auto vs_db2 = serial_rows("cpu", query, db2, Comparison::kXor);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.cache_capacity = 8;
  cfg.start_paused = false;
  ServiceEngine engine(db1, cfg);
  const obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("svc.cache.bytes");
  EXPECT_FALSE(engine.submit(query).get().cache_hit);
  engine.update_database(db2);
  // The key carries the epoch: the miss at epoch 1 does not count.
  const QueryResult first = engine.submit(query).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.epoch, 2U);
  if (obs::kEnabled) {
    EXPECT_EQ(gauge.value(), 0) << "first miss was cached";
  }
  EXPECT_FALSE(engine.submit(query).get().cache_hit);
  const QueryResult hit = engine.submit(query).get();
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.epoch, 2U);
  EXPECT_EQ(hit.row, vs_db2[0]);
  EXPECT_EQ(first.row, vs_db2[0]);
}

// ---- admission control -------------------------------------------------

TEST(ServiceAdmission, RejectPolicyShedsWithOverloadCode) {
  const BitMatrix db = io::random_bitmatrix(23, 128, 0.5, 671);
  const BitMatrix queries = io::random_bitmatrix(6, 128, 0.4, 672);
  const auto expected = serial_rows("cpu", queries, db, Comparison::kXor);

  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 8);
  cfg.max_queue = 4;  // paused engine: the 5th submission finds it full
  ServiceEngine engine(db, cfg);
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t q = 0; q < 4; ++q) {
    futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
  }
  try {
    (void)engine.submit(queries.row_slice(4, 5));
    FAIL() << "5th submission should have been shed";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kOverload);
    EXPECT_NE(std::string(e.what()).find("SNPRT-OVERLOAD"),
              std::string::npos);
  }
  engine.resume();
  engine.drain();
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(futs[q].get().row, expected[q]);
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.rejected, 1U);
  EXPECT_EQ(s.completed, 4U);
  EXPECT_EQ(s.peak_queue_depth, 4U);
  // Shed requests are never half-processed: queue drained exactly 4.
  EXPECT_EQ(s.submitted, 5U);
}

TEST(ServiceAdmission, BlockPolicyBackpressuresInsteadOfShedding) {
  const BitMatrix db = io::random_bitmatrix(23, 128, 0.5, 681);
  const BitMatrix queries = io::random_bitmatrix(5, 128, 0.4, 682);
  const auto expected = serial_rows("cpu", queries, db, Comparison::kXor);

  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 2);
  cfg.max_queue = 2;
  cfg.admission = svc::AdmissionPolicy::kBlock;
  cfg.cache_capacity = 0;
  ServiceEngine engine(db, cfg);  // paused: queue fills to max_queue

  std::vector<std::future<QueryResult>> futs(queries.rows());
  std::atomic<std::size_t> accepted{0};
  std::thread client([&] {
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs[q] = engine.submit(queries.row_slice(q, q + 1));
      accepted.fetch_add(1);
    }
  });
  // The client must stall at the bound while the engine is paused.
  while (accepted.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(accepted.load(), 2U);
  engine.resume();  // dispatcher drains; blocked submits proceed
  client.join();
  engine.drain();
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(futs[q].get().row, expected[q]);
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.rejected, 0U);
  EXPECT_EQ(s.completed, queries.rows());
  EXPECT_LE(s.peak_queue_depth, 2U);
}

// ---- failed-batch isolation --------------------------------------------

/// A batch killed by an injected fault under --fail-policy abort scatters
/// its error to exactly its own futures, and the *next* batch on the same
/// engine succeeds with rows bit-identical to a clean run.
TEST(ServiceStickyError, FailedBatchDoesNotPoisonSubsequentBatches) {
  const BitMatrix db = io::random_bitmatrix(29, 128, 0.5, 691);
  const BitMatrix queries = io::random_bitmatrix(6, 128, 0.4, 692);
  const auto expected =
      serial_rows("titanv", queries, db, Comparison::kXor);

  ServiceConfig cfg = base_config("titanv", Comparison::kXor, 4);
  cfg.cache_capacity = 0;
  ServiceEngine engine(db, cfg);  // paused

  std::vector<std::future<QueryResult>> doomed;
  {
    rt::ScopedFaultPlan plan(rt::FaultPlan::parse("launch:after=1"));
    for (std::size_t q = 0; q < 4; ++q) {
      doomed.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
    engine.resume();
    engine.drain();
    engine.pause();
  }  // plan disarmed before the second wave

  for (std::size_t q = 0; q < 4; ++q) {
    try {
      (void)doomed[q].get();
      FAIL() << "request " << q << " should carry the batch's rt::Error";
    } catch (const rt::Error& e) {
      EXPECT_EQ(e.code(), rt::ErrorCode::kLaunch);
    }
  }
  EXPECT_EQ(engine.stats().failed, 4U);

  // Second wave on the same engine must be clean and bit-identical.
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t q = 4; q < 6; ++q) {
    futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
  }
  engine.resume();
  engine.drain();
  for (std::size_t q = 4; q < 6; ++q) {
    EXPECT_EQ(futs[q - 4].get().row, expected[q]) << "query=" << q;
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.completed, 2U);
  EXPECT_EQ(s.failed, 4U);
}

// ---- request classes & misc contracts ----------------------------------

TEST(ServiceEngineContract, DifferentRecoveryClassesNeverShareABatch) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 701);
  const BitMatrix queries = io::random_bitmatrix(4, 128, 0.4, 702);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 32);
  cfg.cache_capacity = 0;
  ServiceEngine engine(db, cfg);  // paused: all 4 pending together

  rt::RecoveryOptions degrade = cfg.recovery;
  degrade.policy = rt::FailPolicy::kDegrade;
  std::vector<std::future<QueryResult>> futs;
  futs.push_back(engine.submit(queries.row_slice(0, 1)));
  futs.push_back(engine.submit(queries.row_slice(1, 2)));
  futs.push_back(
      engine.submit(queries.row_slice(2, 3), {.recovery = degrade}));
  futs.push_back(engine.submit(queries.row_slice(3, 4)));
  engine.resume();
  engine.drain();
  // FIFO class splitting: [abort, abort], [degrade], [abort].
  EXPECT_EQ(futs[0].get().batch_rows, 2U);
  EXPECT_EQ(futs[1].get().batch_rows, 2U);
  EXPECT_EQ(futs[2].get().batch_rows, 1U);
  EXPECT_EQ(futs[3].get().batch_rows, 1U);
  EXPECT_EQ(engine.stats().batches, 3U);
}

TEST(ServiceEngineContract, ShapeAndConstructionErrors) {
  const BitMatrix db = io::random_bitmatrix(11, 128, 0.5, 711);
  EXPECT_THROW(ServiceEngine(BitMatrix(), ServiceConfig{}),
               std::invalid_argument);
  {
    ServiceConfig cfg = base_config("cpu", Comparison::kXor, 0);
    EXPECT_THROW(ServiceEngine(db, cfg), std::invalid_argument);
  }
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  const BitMatrix wrong_cols = io::random_bitmatrix(1, 64, 0.5, 712);
  EXPECT_THROW((void)engine.submit(wrong_cols), std::invalid_argument);
  const BitMatrix two_rows = io::random_bitmatrix(2, 128, 0.5, 713);
  EXPECT_THROW((void)engine.submit(two_rows), std::invalid_argument);
  EXPECT_THROW(engine.update_database(wrong_cols), std::invalid_argument);
  EXPECT_THROW(engine.update_database(BitMatrix()), std::invalid_argument);
}

TEST(ServiceEngineContract, DestructionResolvesEveryAcceptedRequest) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 721);
  const BitMatrix queries = io::random_bitmatrix(5, 128, 0.4, 722);
  std::vector<std::future<QueryResult>> futs;
  {
    ServiceConfig cfg = base_config("cpu", Comparison::kXor, 2);
    cfg.cache_capacity = 0;
    ServiceEngine engine(db, cfg);  // paused the whole time
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
    }
  }  // destructor must drain, not drop
  const auto expected = serial_rows("cpu", queries, db, Comparison::kXor);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(futs[q].get().row, expected[q]) << "query=" << q;
  }
}

TEST(ServiceEngineContract, ServesBatchesWithoutAPoolOfItsOwn) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "exec.pool.workers is published only with telemetry "
                    "compiled in (SNPCMP_OBS=ON)";
  }
  // The host pool is built on first use and adds its own workers, so it
  // must exist before the baseline is read.
  (void)exec::host_pool();
  const obs::Gauge& workers =
      obs::MetricsRegistry::global().gauge("exec.pool.workers");
  const std::int64_t before = workers.value();
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 725);
  const BitMatrix queries = io::random_bitmatrix(3, 128, 0.4, 726);
  ServiceEngine engine(db, base_config("titanv", Comparison::kXor, 4));
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
  }
  EXPECT_EQ(workers.value(), before);
  engine.resume();  // the three paused queries run as one batch
  engine.drain();
  for (auto& fut : futs) {
    EXPECT_EQ(fut.get().batch_rows, 3U);
  }
  EXPECT_EQ(workers.value(), before);
}

TEST(ServiceEngineContract, StatsLatencyPercentilesArePopulated) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 731);
  const BitMatrix queries = io::random_bitmatrix(8, 128, 0.4, 732);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    (void)engine.submit(queries.row_slice(q, q + 1)).get();
  }
  const auto s = engine.stats();
  EXPECT_GT(s.p50_latency_s, 0.0);
  EXPECT_GE(s.p99_latency_s, s.p50_latency_s);
  EXPECT_GE(s.max_latency_s, s.p99_latency_s);
  EXPECT_GT(s.mean_batch_rows, 0.0);
}

TEST(ServiceSlo, TinyObjectiveCountsEveryCompletionAsBreach) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "stats() reports SLO counters only with telemetry "
                    "compiled in (SNPCMP_OBS=ON)";
  }
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 741);
  const BitMatrix queries = io::random_bitmatrix(6, 128, 0.4, 742);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.start_paused = false;
  cfg.slo.objective_s = 1e-12;  // everything breaches
  cfg.slo.error_budget = 0.01;
  cfg.slo.breach_burn_rate = 10.0;
  ServiceEngine engine(db, cfg);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    (void)engine.submit(queries.row_slice(q, q + 1)).get();
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.slo_breaches, queries.rows());
  EXPECT_GE(s.slo_trips, 1u);  // burn 100 >> 10 trips on first record
  EXPECT_GE(s.slo_burn_fast, 10.0);
  EXPECT_GE(s.slo_burn_slow, 10.0);

  const svc::SloReport report = engine.slo();
  EXPECT_DOUBLE_EQ(report.objective_s, 1e-12);
  EXPECT_EQ(report.state.total, queries.rows());
  EXPECT_EQ(report.state.breaches, queries.rows());
  EXPECT_GT(report.p50_le_s, 0.0);
  EXPECT_GE(report.p99_le_s, report.p50_le_s);
  ASSERT_TRUE(report.worst.has_value());
  EXPECT_NE(report.worst->trace_id, 0u);
  std::uint64_t total = 0;
  for (const std::uint64_t c : report.bucket_counts) {
    total += c;
  }
  EXPECT_EQ(total, queries.rows());
}

// The monitor is the engine's latency record in every build, telemetry
// compiled out included.
TEST(ServiceSlo, NoObjectiveStillFeedsApproxPercentiles) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 743);
  const BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 744);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  (void)engine.submit(query).get();
  const auto s = engine.stats();
  EXPECT_EQ(s.slo_breaches, 0u);
  EXPECT_EQ(s.slo_trips, 0u);
  const svc::SloReport report = engine.slo();
  EXPECT_DOUBLE_EQ(report.objective_s, 0.0);
  EXPECT_EQ(report.state.total, 1u);
  EXPECT_GT(report.p50_le_s, 0.0);  // exemplar histogram fed regardless
}

// ---- deadlines, retry budgets, brown-out (PR 10) -----------------------

TEST(ServiceDeadline, NegativeDeadlineShedsAtAdmission) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 751);
  const BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 752);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  ServiceEngine engine(db, cfg);  // paused
  svc::SubmitOptions options;
  options.deadline_ms = -1.0;
  std::uint64_t trace = 0;
  options.trace_out = &trace;
  try {
    (void)engine.submit(query, options);
    FAIL() << "expired-at-submission deadline must shed";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kDeadline);
    EXPECT_NE(std::string(e.what()).find("SNPRT-DEADLINE"),
              std::string::npos);
  }
  EXPECT_NE(trace, 0u);  // trace id allocated before the throw
  const auto s = engine.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.deadline_shed, 1u);
  EXPECT_EQ(s.completed, 0u);
}

TEST(ServiceDeadline, ExpiredRequestsAreShedAtFormationNeverLaunched) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 753);
  const BitMatrix queries = io::random_bitmatrix(4, 128, 0.4, 754);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 8);
  ServiceEngine engine(db, cfg);  // paused: deadlines expire in the queue

  svc::SubmitOptions options;
  options.deadline_ms = 1e-6;  // expires long before resume()
  std::vector<std::future<QueryResult>> futs;
  std::vector<std::uint64_t> traces(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    options.trace_out = &traces[q];
    futs.push_back(engine.submit(queries.row_slice(q, q + 1), options));
  }
  engine.resume();
  engine.drain();

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    try {
      (void)futs[q].get();
      FAIL() << "request " << q << " should have been shed";
    } catch (const rt::Error& e) {
      EXPECT_EQ(e.code(), rt::ErrorCode::kDeadline);
    }
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.deadline_shed, queries.rows());
  EXPECT_EQ(s.failed, queries.rows());
  // The acceptance bar: an expired request never reaches a launch. No
  // batch may form from an all-expired backlog...
  EXPECT_EQ(s.batches, 0u);
  if (obs::kEnabled) {
    // ...and the flight recorder agrees: every shed trace id has a
    // deadline-shed record and appears in no batch-formation record.
    const auto records = obs::FlightRecorder::global().snapshot();
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      bool shed_seen = false;
      for (const auto& r : records) {
        if (r.trace_id != traces[q]) continue;
        EXPECT_NE(r.kind, obs::FlightKind::kBatch)
            << "shed request " << q << " reached batch formation";
        EXPECT_NE(r.kind, obs::FlightKind::kChunkExec)
            << "shed request " << q << " reached a kernel launch";
        shed_seen |= r.kind == obs::FlightKind::kDeadlineShed;
      }
      EXPECT_TRUE(shed_seen) << "no deadline-shed flight record for " << q;
    }
  }
}

TEST(ServiceDeadline, GenerousDeadlinesAreMetAndBitIdentical) {
  const BitMatrix db = io::random_bitmatrix(23, 128, 0.5, 755);
  const BitMatrix queries = io::random_bitmatrix(6, 128, 0.4, 756);
  const auto expected = serial_rows("cpu", queries, db, Comparison::kXor);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.start_paused = false;
  ServiceEngine engine(db, cfg);
  svc::SubmitOptions options;
  options.deadline_ms = 1e7;  // hours: always met
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const QueryResult r =
        engine.submit(queries.row_slice(q, q + 1), options).get();
    EXPECT_EQ(r.row, expected[q]) << "query=" << q;
    EXPECT_FALSE(r.deadline_expired);
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.deadline_met, queries.rows());
  EXPECT_EQ(s.deadline_expired, 0u);
  EXPECT_EQ(s.deadline_shed, 0u);
}

TEST(ServiceDeadline, RequestClassesNeverShareABatch) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 757);
  const BitMatrix queries = io::random_bitmatrix(4, 128, 0.4, 758);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 32);
  cfg.cache_capacity = 0;
  ServiceEngine engine(db, cfg);  // paused: all 4 pending together

  auto submit_class = [&](std::size_t q, int cls) {
    svc::SubmitOptions options;
    options.request_class = cls;
    return engine.submit(queries.row_slice(q, q + 1), options);
  };
  std::vector<std::future<QueryResult>> futs;
  futs.push_back(submit_class(0, 1));
  futs.push_back(submit_class(1, 1));
  futs.push_back(submit_class(2, 2));  // priority boundary splits here
  futs.push_back(submit_class(3, 1));
  engine.resume();
  engine.drain();
  // FIFO class splitting: [1, 1], [2], [1].
  EXPECT_EQ(futs[0].get().batch_rows, 2u);
  EXPECT_EQ(futs[1].get().batch_rows, 2u);
  EXPECT_EQ(futs[2].get().batch_rows, 1u);
  EXPECT_EQ(futs[3].get().batch_rows, 1u);
  EXPECT_EQ(engine.stats().batches, 3u);
}

TEST(ServiceDeadline, BlockAdmissionWaitIsDeadlineBounded) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 759);
  const BitMatrix queries = io::random_bitmatrix(3, 128, 0.4, 760);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 2);
  cfg.max_queue = 2;
  cfg.admission = svc::AdmissionPolicy::kBlock;
  cfg.cache_capacity = 0;
  ServiceEngine engine(db, cfg);  // paused: the queue never drains

  std::vector<std::future<QueryResult>> futs;
  for (std::size_t q = 0; q < 2; ++q) {
    futs.push_back(engine.submit(queries.row_slice(q, q + 1)));
  }
  // The third submission blocks on the full queue; its deadline must
  // bound the wait and surface as a kDeadline shed, not a hang.
  svc::SubmitOptions options;
  options.deadline_ms = 5.0;
  try {
    (void)engine.submit(queries.row_slice(2, 3), options);
    FAIL() << "blocked submission should have timed out";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kDeadline);
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.deadline_shed, 1u);
  engine.resume();
  engine.drain();
  for (auto& f : futs) (void)f.get();
}

TEST(ServiceDeadline, BlockedSubmittersNeverDeadlockTheDestructor) {
  // Regression (satellite c): a client parked in a kBlock admission wait
  // while the engine is torn down must be released with kCancelled — the
  // destructor used to be able to join the dispatcher while a submitter
  // still waited on queue space, deadlocking both. Run under TSan.
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 761);
  const BitMatrix queries = io::random_bitmatrix(2, 128, 0.4, 762);
  for (int round = 0; round < 16; ++round) {
    ServiceConfig cfg = base_config("cpu", Comparison::kXor, 2);
    cfg.max_queue = 1;
    cfg.admission = svc::AdmissionPolicy::kBlock;
    cfg.cache_capacity = 0;
    std::future<QueryResult> accepted;
    std::atomic<int> outcome{0};  // +1 accepted, -1 cancelled
    std::thread client;
    {
      ServiceEngine engine(db, cfg);  // paused: queue capacity 1
      accepted = engine.submit(queries.row_slice(0, 1));
      client = std::thread([&] {
        try {
          (void)engine.submit(queries.row_slice(1, 2));
          outcome = 1;
        } catch (const rt::Error& e) {
          EXPECT_EQ(e.code(), rt::ErrorCode::kCancelled);
          outcome = -1;
        }
      });
      // The client counts itself under the engine's mutex and holds it
      // until the admission wait releases it, so once stats() sees the
      // second submission the client is parked in that wait. Tearing the
      // engine down earlier would race a submit() against destruction.
      while (engine.stats().submitted < 2) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    }  // destructor races the blocked submit() — must never deadlock
    client.join();
    // Still paused with a full queue when stop is raised: the parked
    // client can only wake to a stopped engine.
    EXPECT_EQ(outcome.load(), -1);
    (void)accepted.get();  // accepted before teardown: always resolved
  }
}

TEST(ServiceRobustness, PerClassRetryBudgetFastFailsWhenDry) {
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 763);
  const BitMatrix queries = io::random_bitmatrix(2, 128, 0.4, 764);
  rt::ScopedFaultPlan plan(rt::FaultPlan::parse("launch:p=1:seed=1"));
  ServiceConfig cfg = base_config("titanv", Comparison::kXor, 1);
  cfg.recovery.policy = rt::FailPolicy::kRetry;
  cfg.recovery.max_attempts = 5;
  cfg.retry_budget = 1.0;        // one retry token for the whole class
  cfg.retry_budget_refill = 0.0; // and no refill: the second op is dry
  ServiceEngine engine(db, cfg);
  auto f0 = engine.submit(queries.row_slice(0, 1));
  auto f1 = engine.submit(queries.row_slice(1, 2));
  engine.resume();
  engine.drain();
  for (auto* f : {&f0, &f1}) {
    try {
      (void)f->get();
      FAIL() << "every launch fails; the request cannot succeed";
    } catch (const rt::Error& e) {
      EXPECT_EQ(e.code(), rt::ErrorCode::kExhausted);
    }
  }
  // The class bucket held one token: exactly one retry was bought across
  // both requests (5 launch samples, not 10 — fast-fail, not burn-down).
  EXPECT_EQ(engine.stats().failed, 2u);
}

TEST(ServiceRobustness, BrownoutShedsLowestClassFirstAndReports) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "brown-out rides the SLO monitor (SNPCMP_OBS=OFF)";
  }
  const BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 765);
  const BitMatrix queries = io::random_bitmatrix(4, 128, 0.4, 766);
  ServiceConfig cfg = base_config("cpu", Comparison::kXor, 4);
  cfg.start_paused = false;
  cfg.cache_capacity = 0;
  cfg.slo.objective_s = 1e-12;  // every completion breaches: trips fast
  cfg.brownout_class_max = 1;   // shed the default tier while browned out
  ServiceEngine engine(db, cfg);

  // First completion trips the burn-rate monitor and latches brown-out.
  svc::SubmitOptions express;
  express.request_class = 2;
  (void)engine.submit(queries.row_slice(0, 1), express).get();
  ASSERT_TRUE(engine.stats().brownout_active);
  EXPECT_GE(engine.stats().brownout_entries, 1u);

  // Browned out: class 1 sheds with kOverload, class 2 still completes.
  try {
    (void)engine.submit(queries.row_slice(1, 2));
    FAIL() << "class-1 request must shed during brown-out";
  } catch (const rt::Error& e) {
    EXPECT_EQ(e.code(), rt::ErrorCode::kOverload);
    EXPECT_NE(std::string(e.what()).find("brown-out"), std::string::npos);
  }
  const QueryResult r = engine.submit(queries.row_slice(2, 3), express).get();
  EXPECT_FALSE(r.row.empty());
  const auto s = engine.stats();
  EXPECT_EQ(s.brownout_shed, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  // The burn rate stays pinned above the trip threshold (everything
  // breaches a 1 ps objective), so the brown-out must still be latched.
  EXPECT_TRUE(s.brownout_active);
}

/// 100-seed acceptance soak: with faults injected at the timeout site
/// (fired from deadline checkpoints inside the compare pipeline) and at
/// launch, the per-request outcome sequence — rows for successes, stable
/// SNPRT codes for failures — must be bit-identical across two runs of
/// every seed. Every checkpoint runs on the dispatcher thread, so
/// injector ordinals are a pure function of the seed (probes and refills
/// are ordinal-driven, never wall-clock).
TEST(ServiceSoak, DeadlineFaultSoakIsBitIdenticalAcrossSeeds) {
  const BitMatrix db = io::random_bitmatrix(23, 192, 0.5, 771);
  const BitMatrix queries = io::random_bitmatrix(8, 192, 0.4, 772);

  using Outcome = std::pair<int, std::vector<std::uint32_t>>;
  const auto run = [&](int seed) {
    rt::ScopedFaultPlan plan(rt::FaultPlan::parse(
        "timeout:p=0.05:seed=" + std::to_string(seed) +
        ",launch:p=0.05:seed=" + std::to_string(seed + 500)));
    ServiceConfig cfg = base_config("titanv", Comparison::kXor, 4);
    cfg.recovery.policy = rt::FailPolicy::kRetry;
    cfg.recovery.backoff_base_s = 0.0;
    ServiceEngine engine(db, cfg);  // paused: one deterministic backlog
    svc::SubmitOptions options;
    options.deadline_ms = 1e7;  // real expiry never fires; injection can
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      futs.push_back(engine.submit(queries.row_slice(q, q + 1), options));
    }
    engine.resume();
    engine.drain();
    std::vector<Outcome> outcomes;
    for (auto& f : futs) {
      try {
        outcomes.emplace_back(0, f.get().row);
      } catch (const rt::Error& e) {
        outcomes.emplace_back(static_cast<int>(e.code()),
                              std::vector<std::uint32_t>{});
      }
    }
    return outcomes;
  };

  for (int seed = 0; seed < 100; ++seed) {
    const auto first = run(seed);
    const auto second = run(seed);
    ASSERT_EQ(first, second) << "seed " << seed << " diverged";
  }
}

TEST(ServiceEngineContract, AdmissionPolicyParsing) {
  EXPECT_EQ(svc::parse_admission_policy("reject"),
            svc::AdmissionPolicy::kReject);
  EXPECT_EQ(svc::parse_admission_policy("block"),
            svc::AdmissionPolicy::kBlock);
  EXPECT_FALSE(svc::parse_admission_policy("drop").has_value());
  EXPECT_EQ(svc::to_string(svc::AdmissionPolicy::kReject), "reject");
  EXPECT_EQ(svc::to_string(svc::AdmissionPolicy::kBlock), "block");
}

}  // namespace
}  // namespace snp
