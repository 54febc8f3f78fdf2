// Memory regression tests for svc::ServiceEngine: a long-running engine's
// live heap must plateau however many requests it has served, and each
// cached result row must cost what its width promises.
//
// Live bytes are counted by replacing the global operator new/delete for
// this binary (live_heap.hpp), which is why the test has an executable of
// its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "io/datagen.hpp"
#include "live_heap.hpp"
#include "svc/service.hpp"

namespace snp {
namespace {

TEST(ServiceMemory, LiveHeapIsFlatFrom70kTo200kRequests) {
  const bits::BitMatrix db = io::random_bitmatrix(19, 128, 0.5, 9101);
  const bits::BitMatrix query = io::random_bitmatrix(1, 128, 0.4, 9102);
  svc::ServiceConfig cfg;
  cfg.device = "cpu";
  svc::ServiceEngine engine(db, cfg);
  // One repeated query: every request after the first is a cache hit,
  // the serving path that allocates least, so per-request history is
  // what would show. 70,000 is past the cost ledger's 65,536-record cap.
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
  EXPECT_EQ(hits, 199'999U);
  EXPECT_LT(at_200k - at_70k, 64 * 1024)
      << "live heap after 70,000 requests: " << at_70k
      << " B, after 200,000: " << at_200k << " B";
}

TEST(ServiceMemory, CachedRowsCostTwoBytesPerDatabaseProfile) {
  // Below 65,536 bit columns every gamma fits 16 bits, so a cached row
  // costs 2 B per database profile, half of a QueryResult row.
  constexpr std::int64_t kProfiles = 4096;
  constexpr std::int64_t kQueries = 64;
  const bits::BitMatrix db = io::random_bitmatrix(kProfiles, 128, 0.5, 9103);
  const bits::BitMatrix queries =
      io::random_bitmatrix(kQueries + 1, 128, 0.4, 9104);
  svc::ServiceConfig cfg;
  cfg.device = "cpu";
  svc::ServiceEngine engine(db, cfg);
  // The first request pays the engine's lazy set-up.
  (void)engine.submit(queries.row_slice(0, 1)).get();
  engine.drain();
  const std::int64_t before = live_heap::live();
  for (std::size_t q = 1; q <= kQueries; ++q) {
    EXPECT_FALSE(engine.submit(queries.row_slice(q, q + 1)).get().cache_hit);
  }
  engine.drain();
  const std::int64_t grown = live_heap::live() - before;
  // Per entry: the row, plus at most 512 B for its query words, table
  // node and cost-ledger record; 32 KiB for the table's and ledger's
  // growth. Rows at 4 B would exceed this by about 8 KiB per entry.
  EXPECT_LT(grown, kQueries * (2 * kProfiles + 512) + 32 * 1024)
      << "live heap grew " << grown << " B over " << kQueries
      << " cached rows of " << kProfiles << " profiles";
  EXPECT_TRUE(engine.submit(queries.row_slice(1, 2)).get().cache_hit)
      << "the oldest entry must still be cached";
}

}  // namespace
}  // namespace snp
