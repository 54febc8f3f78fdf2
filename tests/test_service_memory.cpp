// Bounded-memory regression test for svc::ServiceEngine: a long-running
// engine's live heap must plateau however many requests it has served.
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

}  // namespace
}  // namespace snp
