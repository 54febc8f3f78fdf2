// Bounded-memory regression test for svc::ServiceEngine: a long-running
// engine's live heap must plateau however many requests it has served.
//
// Live bytes are counted by replacing the global operator new/delete for
// this binary, which is why the test has an executable of its own.
// glibc's mallinfo2 cannot do it: it misses mmapped blocks, which is
// where a large vector lives once it grows. Each allocation is charged
// malloc_usable_size(), the same figure its release takes back.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "io/datagen.hpp"
#include "svc/service.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* allocate(std::size_t size, std::size_t align) {
  size = size == 0 ? 1 : size;
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// The standard library's array and nothrow forms forward to these, so
// every global allocation in the process is counted.
void* operator new(std::size_t size) { return allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { release(p); }
void operator delete(void* p, std::align_val_t /*align*/) noexcept {
  release(p);
}
void operator delete(void* p, std::size_t /*size*/,
                     std::align_val_t /*align*/) noexcept {
  release(p);
}

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
    return g_live_bytes.load(std::memory_order_relaxed);
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
