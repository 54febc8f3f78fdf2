// Memory regression tests for svc::ServiceEngine: a long-running engine's
// live heap must plateau however many requests it has served, each cached
// result row must cost what its packed format promises, a query asked once
// must cost the cache no row, and the flight recorder's per-thread rings
// must not be heap blocks.
//
// Live bytes are counted by replacing the global operator new/delete for
// this binary (live_heap.hpp), which is why the test has an executable of
// its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "io/datagen.hpp"
#include "live_heap.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

TEST(ServiceMemory, LiveHeapIsFlatFrom70kTo200kRequests) {
  const bits::BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 9101);
  const bits::BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 9102);
  svc::ServiceConfig cfg;
  cfg.device = "cpu";
  svc::ServiceEngine engine(db, cfg);
  // One repeated query: every request after the second (whose miss
  // caches the row) is a cache hit, the serving path that allocates least,
  // so per-request history is what would show. 70,000 is past the cost
  // ledger's 65,536-record cap.
  std::size_t hits = 0;
  const auto serve = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (engine.submit(query).get().cache_hit) {
        ++hits;
      }
    }
    return live_heap::live();
  };
  const std::int64_t at_70k = serve(70'000);
  const std::int64_t at_200k = serve(130'000);
  EXPECT_EQ(hits, 199'998U);
  EXPECT_LT(at_200k - at_70k, 64 * 1024)
      << "live heap after 70,000 requests: " << at_70k
      << " B, after 200,000: " << at_200k << " B";
}

/// Live bytes the engine's heap grows by while it caches one row for each
/// query but the first, which pays the engine's lazy set-up. Each query is
/// sent twice, since a row is cached on its second miss. Every request
/// must miss, and the oldest entry must still be cached afterwards.
std::int64_t cache_growth(const bits::BitMatrix& db,
                          const bits::BitMatrix& queries) {
  svc::ServiceConfig cfg;
  cfg.device = "cpu";
  svc::ServiceEngine engine(db, cfg);
  (void)engine.submit(queries.row_slice(0, 1)).get();
  engine.drain();
  const std::int64_t before = live_heap::live();
  for (std::size_t q = 1; q < queries.rows(); ++q) {
    for (int copy = 0; copy < 2; ++copy) {
      EXPECT_FALSE(
          engine.submit(queries.row_slice(q, q + 1)).get().cache_hit);
    }
  }
  engine.drain();
  const std::int64_t grown = live_heap::live() - before;
  EXPECT_TRUE(engine.submit(queries.row_slice(1, 2)).get().cache_hit)
      << "the oldest entry must still be cached";
  return grown;
}

// A cached row keeps each 256-profile block's gammas as 1-byte offsets
// from the block's minimum whenever they span fewer than 256 values, plus
// 5 B per block. Per entry the bound adds at most 512 B for the query's
// words, the table node and the cost-ledger record, and 32 KiB for the
// table's and ledger's growth. Rows at 2 B per profile exceed it by about
// 4 KiB per entry.
constexpr std::int64_t kProfiles = 4096;
constexpr std::int64_t kQueries = 64;
constexpr std::int64_t kBound =
    kQueries * (kProfiles + 5 * ((kProfiles + 255) / 256) + 512) + 32 * 1024;

TEST(ServiceMemory, CachedRowsCostAboutOneBytePerDatabaseProfile) {
  const bits::BitMatrix db = io::random_bitmatrix(kProfiles, 128, 0.5, 9103);
  const bits::BitMatrix queries =
      io::random_bitmatrix(kQueries + 1, 128, 0.4, 9104);
  const std::int64_t grown = cache_growth(db, queries);
  EXPECT_LT(grown, kBound) << "live heap grew " << grown << " B over "
                           << kQueries << " cached rows of " << kProfiles
                           << " profiles";
}

TEST(ServiceMemory, CachedFastIdRowsCostAboutOneBytePerDatabaseProfile) {
  // Forensic profiles at 1,024 SNPs: a row's gammas run past 255, but
  // within a block they span fewer than 100 values. Queries 1, 11, ..., 61
  // (7 of 64) are database rows with two SNPs flipped; such a planted
  // match scores gamma 2 and widens only its own block, to 2 B.
  io::ProfileDbParams params;
  params.seed = 9105;
  const bits::BitMatrix db = io::generate_profile_db(kProfiles, 1024, params);
  params.seed = 9106;
  bits::BitMatrix queries =
      io::generate_profile_db(kQueries + 1, 1024, params);
  for (std::size_t q = 1; q < queries.rows(); q += 10) {
    std::ranges::copy(db.row64(q * 613 % db.rows()), queries.row64(q).begin());
    queries.set(q, q, !queries.get(q, q));
    queries.set(q, 1000 - q, !queries.get(q, 1000 - q));
  }
  const std::int64_t grown = cache_growth(db, queries);
  EXPECT_LT(grown, kBound) << "live heap grew " << grown << " B over "
                           << kQueries << " cached rows of " << kProfiles
                           << " profiles";
}

TEST(ServiceCache, QueriesSentOnceLeaveTheCacheEmptyAndTheHeapFlat) {
  // A row is cached on its query's second miss, so kQueries distinct
  // queries sent once cache nothing: the heap grows by kBound's allowance
  // for the queries' words and ledger records, but by no row (64 rows of
  // 4,096 profiles would add about 260 KiB).
  const bits::BitMatrix db = io::random_bitmatrix(kProfiles, 128, 0.5, 9107);
  const bits::BitMatrix queries =
      io::random_bitmatrix(kQueries + 1, 128, 0.4, 9108);
  svc::ServiceConfig cfg;
  cfg.device = "cpu";
  svc::ServiceEngine engine(db, cfg);
  const obs::Counter& admitted =
      obs::MetricsRegistry::global().counter("svc.cache.admitted");
  const std::uint64_t admitted_before = admitted.value();
  (void)engine.submit(queries.row_slice(0, 1)).get();
  engine.drain();
  const std::int64_t before = live_heap::live();
  for (std::size_t q = 1; q < queries.rows(); ++q) {
    EXPECT_FALSE(engine.submit(queries.row_slice(q, q + 1)).get().cache_hit);
  }
  engine.drain();
  const std::int64_t grown = live_heap::live() - before;
  EXPECT_LT(grown, kQueries * 512 + 32 * 1024)
      << "live heap grew " << grown << " B over " << kQueries
      << " queries sent once";
  if (obs::kEnabled) {
    EXPECT_EQ(
        obs::MetricsRegistry::global().gauge("svc.cache.bytes").value(), 0);
    EXPECT_EQ(admitted.value(), admitted_before);
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.cache_misses, static_cast<std::uint64_t>(kQueries + 1));
  EXPECT_EQ(s.cache_hits, 0U);
}

TEST(ServiceMemory, FlightRingsStayOutOfTheHeap) {
  // A thread's first flight record registers its ring, often in the
  // middle of a large job; the ring's slots must not be a heap block, or
  // where it lands decides where the job's next large blocks go. A fresh
  // recorder has no ring to hand over, so the thread gets a new one.
  obs::FlightRecorder recorder;
  std::int64_t grown = 0;
  std::thread([&] {
    const std::int64_t before = live_heap::live();
    recorder.record(obs::FlightKind::kBatch, 0, 0, 1, 1);
    grown = live_heap::live() - before;
  }).join();
  const auto ring_bytes = static_cast<std::int64_t>(recorder.capacity() * 48);
  EXPECT_LT(grown, ring_bytes) << "the first record added " << grown
                               << " B of heap; a ring is " << ring_bytes
                               << " B";
}

}  // namespace
}  // namespace snp
